import numpy as np
import pytest

import bolzakit.funspace as fs

from oracles import fit_order, random_trajectory


def _line(T=1.0, N=20, n=1, slope=1.0, offset=0.0):
    grid = fs.Grid(T, N)
    t = grid.nodes()
    vals = offset + slope * t
    if n == 1:
        return fs.Trajectory(grid, vals[:, None])
    return fs.Trajectory(grid, np.tile(vals[:, None], (1, n)))


# ---------------------------------------------------------------------------
# norms


def test_ac_norm_of_identity_line():
    for N in (1, 7, 50):
        assert fs.ac_norm(_line(N=N)) == pytest.approx(1.0)


def test_ac_norm_of_constant():
    grid = fs.Grid(2.0, 10)
    c = np.array([3.0, -4.0])
    x = fs.Trajectory(grid, np.tile(c, (11, 1)))
    assert fs.ac_norm(x) == pytest.approx(5.0)


def test_ac_norm_two_dimensional_hand_value():
    # x(t) = (1 - t, 2t) on [0,1]: ||(1,0)|| + integral ||(-1,2)|| = 1 + sqrt(5)
    grid = fs.Grid(1.0, 40)
    t = grid.nodes()
    x = fs.Trajectory(grid, np.column_stack([1.0 - t, 2.0 * t]))
    assert fs.ac_norm(x) == pytest.approx(1.0 + np.sqrt(5.0))


def test_one_one_and_sup_norm_of_line():
    x = _line(N=16)
    assert fs.one_one_norm(x) == pytest.approx(1.5)
    assert fs.sup_norm(x) == pytest.approx(1.0)


def test_equivalence_constants_on_line_instance():
    # T = 1: lower constant 1/(1+T), upper (2T+1)/T, sup constant (2+2T)/T
    x = _line(N=16)
    ac = fs.ac_norm(x)
    oo = fs.one_one_norm(x)
    sup = fs.sup_norm(x)
    assert (1.0 / 2.0) * oo == pytest.approx(0.75)
    assert (1.0 / 2.0) * oo <= ac <= 3.0 * oo
    assert 3.0 * oo == pytest.approx(4.5)
    assert sup <= 4.0 * oo
    assert 4.0 * oo == pytest.approx(6.0)


def test_norm_equivalence_random_sample():
    rng = np.random.default_rng(3)
    for _ in range(300):
        T = float(rng.choice([0.5, 1.0, 2.0]))
        N = int(rng.choice([10, 100]))
        n = int(rng.integers(1, 4))
        x = random_trajectory(fs.Grid(T, N), n, rng)
        ac = fs.ac_norm(x)
        oo = fs.one_one_norm(x)
        sup = fs.sup_norm(x)
        assert oo / (1.0 + T) <= ac + 1e-9
        assert ac <= (2.0 * T + 1.0) / T * oo + 1e-9
        assert sup <= (2.0 + 2.0 * T) / T * oo + 1e-9


def test_norms_homogeneous_and_triangle():
    rng = np.random.default_rng(4)
    grid = fs.Grid(1.5, 30)
    for norm in (fs.ac_norm, fs.one_one_norm, fs.sup_norm):
        for _ in range(60):
            x = random_trajectory(grid, 2, rng)
            y = random_trajectory(grid, 2, rng)
            c = float(rng.uniform(-3, 3))
            assert norm(fs.Trajectory(grid, c * x.values)) == pytest.approx(
                abs(c) * norm(x), abs=1e-9)
            assert norm(fs.Trajectory(grid, x.values + y.values)) <= (
                norm(x) + norm(y) + 1e-9)


def test_ac_dual_norm_is_the_dual_of_ac_norm():
    # |<G, u>| <= ac_dual_norm(G) * ac_norm(u), with equality for the unit
    # step that starts at the row of the largest tail sum
    rng = np.random.default_rng(5)
    for N, T in ((1, 1.0), (17, 2.5), (60, 0.4)):
        grid = fs.Grid(T, N)
        for _ in range(40):
            G = rng.standard_normal((N + 1, 2))
            dual = fs.ac_dual_norm(G)
            u = random_trajectory(grid, 2, rng)
            pairing = float(np.einsum("ki,ki->", G, u.values))
            assert abs(pairing) <= dual * fs.ac_norm(u) * (1 + 1e-12)
            R = fs.tail_sums(G)
            k = int(np.linalg.norm(R, axis=1).argmax())
            step = np.zeros((N + 1, 2))
            step[k:] = R[k] / np.linalg.norm(R[k])
            u = fs.Trajectory(grid, step)
            assert fs.ac_norm(u) == pytest.approx(1.0, rel=1e-12)
            assert float(np.einsum("ki,ki->", G, step)) == pytest.approx(dual, rel=1e-12)


def test_ac_norms_of_copies_are_the_one_curve_norms():
    # bit for bit: the x(0) term is np.linalg.norm's BLAS dot in every copy
    rng = np.random.default_rng(6)
    for n in (1, 2, 3):
        grid = fs.Grid(1.5, 40)
        X = rng.standard_normal((5, 41, n))
        single = [np.linalg.norm(x[0]) + grid.h * fs.row_norms(
            np.diff(x, axis=0) / grid.h).sum() for x in X]
        assert fs.ac_norms(X, grid.h).tolist() == single
        assert [fs.ac_norm(fs.Trajectory(grid, x)) for x in X] == single


def test_norms_whose_squares_overflow_stay_finite():
    # rows are measured again scaled by a power of two only where the plain
    # norm overflows; a non-finite row, or a norm beyond the float range,
    # stays infinite
    rows = np.array([[3e300, 4e300], [1.5e308, 1.5e308], [np.inf, 1.0], [3.0, 4.0]])
    assert fs.scaled_row_norms(rows).tolist() == [5e300, np.inf, np.inf, 5.0]
    assert fs.vector_norm(np.array([3e300, 4e300])) == 5e300
    G = np.zeros((3, 2))
    G[1] = [3e300, 4e300]
    assert fs.ac_dual_norm(G) == 5e300


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_constant_case():
    grid = fs.Grid(1.0, 8)
    q = fs.CellPath(grid, np.ones((8, 1)))
    l = fs.CellPath(grid, np.zeros((8, 1)))
    qbar, rep = fs.reconstruct_ac(q, l, [1.0], [-1.0])
    assert np.allclose(qbar.values, 1.0)
    assert rep.r_T == pytest.approx(0.0, abs=1e-14)
    assert rep.r_match == pytest.approx(0.0, abs=1e-14)
    assert rep.r_ode == pytest.approx(0.0, abs=1e-14)


def test_reconstruct_unit_slope():
    grid = fs.Grid(1.0, 32)
    l = fs.CellPath(grid, np.ones((32, 1)))
    q = fs.CellPath(grid, (grid.cell_lefts() + 0.5 * grid.h)[:, None])
    qbar, rep = fs.reconstruct_ac(q, l, [0.0], [-1.0])
    assert np.allclose(qbar.values[:, 0], grid.nodes())
    h = grid.h
    assert rep.r_T <= h
    assert rep.r_match <= h
    assert rep.r_ode <= 1e-12


def test_reconstruct_starts_at_a_exactly():
    rng = np.random.default_rng(8)
    grid = fs.Grid(2.0, 25)
    for _ in range(20):
        q = fs.CellPath(grid, rng.standard_normal((25, 2)))
        l = fs.CellPath(grid, rng.standard_normal((25, 2)))
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        qbar, rep = fs.reconstruct_ac(q, l, a, b)
        assert np.array_equal(qbar.values[0], a)
        assert rep.r_ode <= 1e-12


def test_pointwise_corruption_moves_only_r_match():
    grid = fs.Grid(1.0, 16)
    l = fs.CellPath(grid, np.ones((16, 1)))
    q_vals = (grid.cell_lefts() + 0.5 * grid.h)[:, None].copy()
    q = fs.CellPath(grid, q_vals)
    qbar, rep = fs.reconstruct_ac(q, l, [0.0], [-1.0])
    corrupted_vals = q_vals.copy()
    corrupted_vals[7, 0] += 5.0
    q_bad = fs.CellPath(grid, corrupted_vals)
    qbar2, rep2 = fs.reconstruct_ac(q_bad, l, [0.0], [-1.0])
    assert np.array_equal(qbar.values, qbar2.values)  # q does not drive q_bar
    assert rep2.r_match - rep.r_match <= grid.h * 5.0 + 1e-12
    assert rep2.r_T == rep.r_T and rep2.r_ode == rep.r_ode


# ---------------------------------------------------------------------------
# weak-form identity


def test_weak_identity_zero_everything():
    grid = fs.Grid(1.0, 10)
    qbar = fs.Trajectory(grid, np.zeros((11, 1)))
    l = fs.CellPath(grid, np.zeros((10, 1)))
    assert fs.weak_identity_defect(qbar, l, [0.0], [0.0], degree=4) == 0.0


def test_weak_identity_exact_on_constants_all_degrees():
    # integration by parts is exact when the representative is constant
    grid = fs.Grid(1.0, 9)
    qbar = fs.Trajectory(grid, np.ones((10, 1)))
    l = fs.CellPath(grid, np.zeros((9, 1)))
    defect = fs.weak_identity_defect(qbar, l, [1.0], [-1.0], degree=8)
    assert defect <= 1e-13


def test_weak_identity_second_order_on_polynomial_data():
    errors = []
    hs = []
    for N in (20, 40, 80):
        grid = fs.Grid(1.0, N)
        t = grid.cell_lefts()
        l = fs.CellPath(grid, (3.0 * t**2 - 1.0)[:, None])
        a = np.array([0.25])
        # choose b so that the discrete terminal identity holds exactly
        total = grid.h * l.values.sum(axis=0)
        b = -(a + total)
        q = fs.CellPath(grid, np.zeros((N, 1)))  # unused by the rebuild
        qbar, rep = fs.reconstruct_ac(q, l, a, b)
        assert rep.r_T <= 1e-14
        errors.append(fs.weak_identity_defect(qbar, l, a, b, degree=3))
        hs.append(grid.h)
    order = fit_order(hs, errors)
    assert order >= 1.8, (hs, errors, order)


def test_weak_identity_reconstructed_small_defect():
    rng = np.random.default_rng(21)
    grid = fs.Grid(1.0, 64)
    l = fs.CellPath(grid, rng.standard_normal((64, 1)))
    a = rng.standard_normal(1)
    b = -(a + grid.h * l.values.sum(axis=0))
    qbar, _ = fs.reconstruct_ac(fs.CellPath(grid, np.zeros((64, 1))), l, a, b)
    defect = fs.weak_identity_defect(qbar, l, a, b, degree=3)
    assert defect <= 10.0 * grid.h**2 * 10.0


# ---------------------------------------------------------------------------
# validation


def test_trajectory_shape_validation():
    grid = fs.Grid(1.0, 4)
    with pytest.raises(ValueError, match="rows"):
        fs.Trajectory(grid, np.zeros((4, 1)))
    with pytest.raises(ValueError, match="finite"):
        fs.Trajectory(grid, np.full((5, 1), np.nan))


def test_grid_validation():
    with pytest.raises(ValueError):
        fs.Grid(0.0, 10)
    with pytest.raises(ValueError):
        fs.Grid(1.0, 0)
