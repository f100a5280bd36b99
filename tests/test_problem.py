import numpy as np
import pytest

import bolzakit.problem as pb
import bolzakit.solver as sv
from bolzakit import expr as ex
from bolzakit.catalog import get_case
from bolzakit.convex import Box, Product, Reals, Singleton
from bolzakit.funspace import Grid, Trajectory, ac_dual_norm, ac_norm

from oracles import fit_order, random_expr, random_trajectory


def _make(n=1, T=1.0, phi="0", theta="v1^2/2", g=("0",), omega1=None, omega2=None,
          ell=None):
    return pb.ProblemSpec(
        n=n,
        T=T,
        phi=ex.parse(phi, n, ex.PROFILE_TERMINAL),
        theta=ex.parse(theta, n, ex.PROFILE_RUNNING),
        g=[ex.parse(s, n, ex.PROFILE_DRIFT) for s in g],
        omega1=omega1 or Reals(n),
        omega2=omega2 or Reals(2 * n),
        lipschitz_ell=ell,
    )


def _line(grid, slope=1.0, offset=0.0):
    return Trajectory(grid, (offset + slope * grid.nodes())[:, None])


# ---------------------------------------------------------------------------
# cost


def test_cost_line_is_half_exactly():
    case = get_case("p1")
    for N in (5, 50, 333):
        grid = Grid(1.0, N)
        assert pb.evaluate_cost(case.problem, _line(grid)) == pytest.approx(
            0.5, abs=1e-14
        )


def test_cost_terminal_only():
    P = _make(phi="x0_1", theta="0")
    grid = Grid(1.0, 10)
    x = Trajectory(grid, np.full((11, 1), 3.0))
    assert pb.evaluate_cost(P, x) == pytest.approx(3.0)


def test_cost_zero_curve():
    case = get_case("p1")
    grid = Grid(1.0, 10)
    assert pb.evaluate_cost(case.problem, _line(grid, slope=0.0)) == 0.0


def test_cost_propagates_domain_error():
    P = _make(theta="1/x1")
    grid = Grid(1.0, 4)
    x = _line(grid)  # x(0) = 0 divides by zero in the first cell
    with pytest.raises(ex.ExprDomainError):
        pb.evaluate_cost(P, x)


# ---------------------------------------------------------------------------
# cost derivative


def _gateaux(P, x, u):
    """The cost's directional derivative at x along u: <cost_gradient(x), u>."""
    return float(np.einsum("ki,ki->", pb.cost_gradient(P, x.grid, x.values), u.values))


def test_gateaux_line_direction():
    case = get_case("p1")
    grid = Grid(1.0, 64)
    x = _line(grid)
    assert _gateaux(case.problem, x, x) == pytest.approx(1.0)


def test_gateaux_zero_direction():
    case = get_case("p1")
    grid = Grid(1.0, 16)
    u = Trajectory(grid, np.zeros((17, 1)))
    assert _gateaux(case.problem, _line(grid), u) == 0.0


def _random_problem(rng, n):
    theta = random_expr(rng, ex.PROFILE_RUNNING, n, depth=3)
    phi = random_expr(rng, ex.PROFILE_TERMINAL, n, depth=2)
    g = [random_expr(rng, ex.PROFILE_DRIFT, n, depth=2) for _ in range(n)]
    return pb.ProblemSpec(
        n=n, T=1.0, phi=phi, theta=theta, g=g,
        omega1=Reals(n), omega2=Reals(2 * n),
    )


def test_gateaux_matches_central_difference():
    rng = np.random.default_rng(42)
    eps = 1e-5
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 3))
        P = _random_problem(rng, n)
        grid = Grid(1.0, 24)
        x = random_trajectory(grid, n, rng, scale=0.5)
        u = random_trajectory(grid, n, rng, scale=0.5)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                sym = _gateaux(P, x, u)
                fd = (
                    pb.evaluate_cost(P, Trajectory(grid, x.values + eps * u.values))
                    - pb.evaluate_cost(P, Trajectory(grid, x.values - eps * u.values))
                ) / (2 * eps)
        except ex.ExprDomainError:
            continue
        if not (np.isfinite(sym) and np.isfinite(fd)):
            continue  # overflowing draw; resample
        assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym))
        checked += 1


def test_gateaux_linear_in_direction():
    rng = np.random.default_rng(43)
    case = get_case("p4")
    grid = Grid(1.0, 20)
    x = random_trajectory(grid, 1, rng)
    for _ in range(50):
        u1 = random_trajectory(grid, 1, rng)
        u2 = random_trajectory(grid, 1, rng)
        a = float(rng.uniform(-2, 2))
        lhs = _gateaux(case.problem, x, Trajectory(grid, a * u1.values + u2.values))
        rhs = a * _gateaux(case.problem, x, u1) + _gateaux(
            case.problem, x, u2
        )
        scale = 1.0 + abs(lhs)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_gateaux_bounded_by_estimated_lipschitz():
    rng = np.random.default_rng(44)
    case = get_case("p2")
    grid = Grid(1.0, 40)
    x = _line(grid)
    est = pb.estimate_lipschitz(case.problem, x, samples=200, seed=5)
    for _ in range(100):
        u = random_trajectory(grid, 1, rng)
        bound = est.value * ac_norm(u)
        assert abs(_gateaux(case.problem, x, u)) <= bound + 1e-9


def _box_problem():
    """The benchmark's smooth box instance at its nominal parameters: three
    states with rotational drift, velocities in [-1, 1]^3, x(0) pinned."""
    return _make(
        n=3,
        theta="((v1-1.5)^2+(v2-(-1.2))^2+(v3-0.8)^2)/2+(x1^2+x2^2+x3^2)/2",
        g=("x2", "x3-x1", "x1-x2"),
        omega1=Box([-1.0] * 3, [1.0] * 3),
        omega2=Product([Singleton([0.0] * 3), Reals(3)]),
    )


@pytest.mark.parametrize("which", ["p1", "p2", "box"])
def test_estimate_covers_the_gradient_slope_at_the_candidate(which):
    # the slope of J_h at x is the ac-dual norm of its node gradient; the
    # estimate keeps its 1.5x margin over the slope at the candidate itself
    if which == "box":
        P = _box_problem()
        x = sv.solve(P, sv.SolverConfig(grid_N=20)).x
    else:
        P = get_case(which).problem
        x = get_case(which).x_star(Grid(P.T, 20))
    est = pb.estimate_lipschitz(P, x)
    assert est.provenance == "estimated"
    assert est.value >= 1.5 * ac_dual_norm(pb.cost_gradient(P, x.grid, x.values))


def test_estimate_lipschitz_evaluates_no_cost(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the estimate must read the cost gradient only")

    monkeypatch.setattr(pb, "cost", forbidden)
    monkeypatch.setattr(pb, "evaluate_cost", forbidden)
    case = get_case("p2")
    est = pb.estimate_lipschitz(case.problem, case.x_star(Grid(1.0, 20)))
    assert est.value > 0 and est.provenance == "estimated"


def test_estimate_rejects_a_non_finite_slope():
    # the line rises to 350 at the last left node, so the slope at it is
    # finite; the sample steps reach ac-norm 0.1 * (1 + 11050), and the cost
    # gradient overflows at some of them: no modulus can be reported
    P = _make(theta="exp(x1)+v1^2/2")
    x = _line(Grid(1.0, 10), slope=6000.0, offset=-5050.0)
    assert np.isfinite(ac_dual_norm(pb.cost_gradient(P, x.grid, x.values)))
    with pytest.raises(pb.ProblemError, match="slope is non-finite"):
        pb.estimate_lipschitz(P, x)


_COPY_PROBLEMS = {
    # curved theta in (t, x, v), a terminal cost in both endpoints and a
    # nonlinear drift: every part of the node scatters and of the Hessian
    # varies per cell and per copy
    "curved": dict(theta="v1^2/2+sin(x1)*v2+x2^2*cos(t)+exp(x1*v1)/4",
                   phi="x0_1^2+xT_1*xT_2+cos(xT_2)",
                   g=("sin(x2)*cos(t)", "x1*x2/2-x1")),
    # quadratic theta and phi and an affine drift: constant Hessians and a
    # constant drift Jacobian, one block that broadcasts over every cell
    "constant": dict(theta="(v1^2+v2^2)/2+x1*v2+x2^2/2", phi="x0_1*xT_2",
                     g=("0.5*x2", "t-x1")),
}


def _node_blocks(add):
    """A Hessian kernel as node blocks, copy axis first."""
    def run(P, grid, X, MU, S, JW, JE, U):
        blocks = pb.node_blocks(grid, P.n, len(X))
        add(blocks, P, grid, X, MU, JW, JE)
        return [np.moveaxis(block, 2, 0) for block in blocks]
    return run


# each kernel's outputs on node arrays X, cell values MU, endpoint vectors S,
# Hessians JW, JE and node arrays U, with the copies on the leading axis
_COPY_KERNELS = {
    "cost": lambda P, grid, X, MU, S, JW, JE, U: [pb.cost(P, grid, X)],
    "cost_gradient": lambda P, grid, X, MU, S, JW, JE, U: [
        pb.cost_gradient(P, grid, X)],
    "constraint_image": lambda P, grid, X, MU, S, JW, JE, U: list(
        pb.constraint_image(P, grid, X)),
    "constraint_derivative": lambda P, grid, X, MU, S, JW, JE, U: list(
        pb.constraint_derivative(P, grid, X, U)),
    "constraint_adjoint": lambda P, grid, X, MU, S, JW, JE, U: [
        pb.constraint_adjoint(P, grid, X, MU, S)],
    "cost_hessian": _node_blocks(
        lambda blocks, P, grid, X, MU, JW, JE: pb.add_cost_hessian(blocks, P, grid, X)),
    "constraint_hessian": _node_blocks(pb.add_constraint_hessian),
}


@pytest.mark.parametrize("problem", sorted(_COPY_PROBLEMS))
@pytest.mark.parametrize("kernel", list(_COPY_KERNELS))
def test_kernel_copies_match_one_curve_calls(kernel, problem):
    # a kernel on B copies is B one-curve calls, bitwise; the node blocks
    # take copies only, so their one-curve call is one copy
    P = _make(n=2, **_COPY_PROBLEMS[problem])
    grid = Grid(1.3, 37)
    rng = np.random.default_rng(8)
    B, N, n = 4, grid.N, 2
    args = (0.5 * rng.standard_normal((B, N + 1, n)), rng.standard_normal((B, N, n)),
            rng.standard_normal((B, 2 * n)), rng.standard_normal((B, N, n, n)),
            rng.standard_normal((B, 2 * n, 2 * n)), rng.standard_normal((B, N + 1, n)))
    run = _COPY_KERNELS[kernel]
    outputs = run(P, grid, *args)
    blocks = kernel.endswith("hessian")
    for b in range(B):
        one = run(P, grid, *(a[b : b + 1] if blocks else a[b] for a in args))
        for copies, single in zip(outputs, one, strict=True):
            assert copies.shape[0] == B
            assert np.array_equal(copies[b], single[0] if blocks else single)


def _estimate_point_by_point(P, xbar, samples, seed):
    """The estimate one point at a time: the reference for the chunked
    evaluation."""
    rng = np.random.default_rng(seed)
    grid, X = xbar.grid, xbar.values

    def slope(Y):
        return ac_dual_norm(pb.cost_gradient(P, grid, Y))

    radius = 0.1 * (1.0 + ac_norm(xbar))
    best = slope(X)
    for _ in range(samples):
        d = pb._sample_direction(grid, P.n, rng)
        norm_d = ac_norm(Trajectory(grid, d))
        if norm_d < 1e-12:
            continue
        step = (radius * rng.uniform(0.2, 1.0) / norm_d) * d
        best = max(best, slope(X + step), slope(X - step))
    return 1.5 * best


def _near_curve(P, N, seed):
    grid = Grid(P.T, N)
    rng = np.random.default_rng(seed)
    ramp = np.outer(grid.nodes(), np.linspace(0.5, 1.0, P.n))
    return Trajectory(grid, ramp + 0.01 * rng.standard_normal((N + 1, P.n)))


@pytest.mark.parametrize("which, N, samples, calls", [
    ("p2", 200, 20, 3),  # 20 points a call: 20, 20 and a partial 1
    ("box", 97, 20, 1),  # 41 points a call: exactly one full call
    ("box", 4100, 3, 7),  # N + 1 beyond the chunk: one point a call
    ("p2", 40, 200, 5),  # 99 points a call, the last partial
])
def test_estimate_matches_the_point_by_point_loop(monkeypatch, which, N, samples,
                                                  calls):
    P = _box_problem() if which == "box" else get_case(which).problem
    x = _near_curve(P, N, seed=N)
    expected = [_estimate_point_by_point(P, x, samples, seed) for seed in (0, 7)]
    real = pb.cost_gradient
    copies = []

    def counted(P_, grid, X):
        copies.append(len(X))
        return real(P_, grid, X)

    monkeypatch.setattr(pb, "cost_gradient", counted)
    for seed, value in zip((0, 7), expected):
        est = pb.estimate_lipschitz(P, x, samples=samples, seed=seed)
        assert est.value.hex() == value.hex()
    assert len(copies) == 2 * calls
    assert max(copies) == max(1, pb._LIPSCHITZ_NODES // (N + 1))


def test_estimate_keeps_the_draw_order_past_a_null_direction(monkeypatch):
    # a null direction draws no step scale; the chunked estimate must skip
    # it in the same place as the loop
    real = pb._sample_direction
    draws = []

    def sometimes_null(grid, n, rng):
        d = real(grid, n, rng)
        draws.append(None)
        return 0.0 * d if len(draws) % 3 == 0 else d

    monkeypatch.setattr(pb, "_sample_direction", sometimes_null)
    P = get_case("p2").problem
    x = _near_curve(P, 200, seed=3)
    expected = _estimate_point_by_point(P, x, 20, seed=1)
    assert pb.estimate_lipschitz(P, x, samples=20, seed=1).value == expected


@pytest.mark.parametrize("N", [200, 1000, 4000])
def test_estimate_memory_stays_bounded(N):
    # the points are evaluated in chunks of at most _LIPSCHITZ_NODES nodes,
    # never all at once: the box estimate stays under 1 MB at every grid
    import tracemalloc

    P = _box_problem()
    x = _near_curve(P, N, seed=1)
    tracemalloc.start()
    try:
        pb.estimate_lipschitz(P, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


# ---------------------------------------------------------------------------
# constraint map


def test_apply_constraint_zero_drift():
    case = get_case("p1")
    grid = Grid(1.0, 8)
    W, E = pb.constraint_image(case.problem, grid, _line(grid).values)
    assert np.allclose(W, 1.0)
    assert np.allclose(E, [0.0, 1.0])


def test_apply_constraint_constant_curve_with_identity_drift():
    P = _make(g=("x1",))
    grid = Grid(1.0, 6)
    c = 2.5
    x = Trajectory(grid, np.full((7, 1), c))
    W, E = pb.constraint_image(P, grid, x.values)
    assert np.allclose(W, c)
    assert np.allclose(E, [c, c])


def test_apply_constraint_drift_case_two_cells():
    # x(t) = t with g(t,x) = x on two cells: velocities are exactly 1 and
    # the drift adds the left-node state, so w = (1 + 0, 1 + 0.5)
    case = get_case("p4")
    grid = Grid(1.0, 2)
    W, _ = pb.constraint_image(case.problem, grid, _line(grid).values)
    assert np.allclose(W[:, 0], [1.0, 1.5])


def test_apply_constraint_derivative_zero_drift_is_linear_part():
    case = get_case("p1")
    grid = Grid(1.0, 12)
    rng = np.random.default_rng(3)
    u = random_trajectory(grid, 1, rng)
    DW, DE = pb.constraint_derivative(case.problem, grid, _line(grid).values, u.values)
    assert np.allclose(DW, u.velocities())
    assert np.allclose(DE, [u.values[0, 0], u.values[-1, 0]])


def test_apply_constraint_derivative_quadratic_drift():
    P = _make(g=("x1^2",))
    grid = Grid(1.0, 5)
    ones = np.ones((6, 1))
    DW, _ = pb.constraint_derivative(P, grid, ones, ones)
    assert np.allclose(DW, 2.0)  # 0 + 2 x u at x = u = 1


def test_constraint_linearization_taylor_order():
    # quadratic drift: the remainder is exactly quadratic, slope ~ 2
    P = _make(g=("x1^2",))
    grid = Grid(1.0, 30)
    rng = np.random.default_rng(17)
    x = random_trajectory(grid, 1, rng, scale=0.5)
    d = random_trajectory(grid, 1, rng)
    d = (1.0 / ac_norm(d)) * d.values
    sizes = [1e-1, 1e-2, 1e-3, 1e-4]
    defects = []
    for s in sizes:
        U = s * d
        W, E = pb.finite_constraint_image(P, grid, x.values)
        DW, DE = pb.constraint_derivative(P, grid, x.values, U)
        W1, E1 = pb.finite_constraint_image(P, grid, x.values + U)
        dv = W1 - W - DW
        de = E1 - E - DE
        h = grid.h
        defects.append(
            float(h * np.linalg.norm(dv, axis=1).sum() + np.linalg.norm(de))
        )
    slope = fit_order(sizes, defects)
    assert slope >= 1.9, (sizes, defects, slope)


def test_constraint_derivative_first_order_accurate():
    rng = np.random.default_rng(18)
    checked = 0
    eps = 1e-6
    while checked < 30:
        n = int(rng.integers(1, 3))
        P = _random_problem(rng, n)
        grid = Grid(1.0, 16)
        x = random_trajectory(grid, n, rng, scale=0.5)
        u = random_trajectory(grid, n, rng, scale=0.5)
        try:
            W, E = pb.finite_constraint_image(P, grid, x.values)
            DW, DE = pb.constraint_derivative(P, grid, x.values, u.values)
            W1, E1 = pb.finite_constraint_image(P, grid, x.values + eps * u.values)
        except ex.ExprDomainError:
            continue
        dv = (W1 - W) / eps - DW
        de = (E1 - E) / eps - DE
        h = grid.h
        defect = float(h * np.linalg.norm(dv, axis=1).sum() + np.linalg.norm(de))
        lin_norm = float(h * np.linalg.norm(DW, axis=1).sum() + np.linalg.norm(DE))
        assert defect <= 1e-4 * (1.0 + lin_norm)
        # the adjoint is the transpose of the linearization:
        # <adjoint(MU, S), U> = h sum_k <MU_k, (Du)_k> + <S, (u_0, u_N)>
        MU = rng.standard_normal((grid.N, n))
        S = rng.standard_normal(2 * n)
        adj = pb.constraint_adjoint(P, grid, x.values, MU, S)
        lhs = float(np.einsum("ki,ki->", adj, u.values))
        rhs = h * float(np.einsum("ki,ki->", MU, DW)) + float(S @ DE)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + float(np.abs(adj * u.values).sum()))
        checked += 1


@pytest.mark.parametrize("bad, message", [
    ([700.0, 700.0, 700.0, 800.0, 800.0],
     r"running cost theta\(t, x, v\) is non-finite at cell 3 \(t = 0.75\)"),
    ([709.7] * 5, "cost is non-finite: .* the sum over the cells overflows"),
], ids=["cell", "sum"])
def test_finite_cost_names_where_the_cost_overflows(bad, message):
    # the second copy's cost is no number: exp overflows in its cell 3, or
    # every cell is finite and their sum overflows
    P = _make(theta="exp(x1)")
    X = np.stack([np.full((5, 1), 700.0), np.array(bad)[:, None]])
    with pytest.raises(pb.ProblemError, match=message):
        pb.finite_cost(P, Grid(1.0, 4), X)


# ---------------------------------------------------------------------------
# feasibility


def test_feasible_curve_has_zero_residual():
    case = get_case("p2")
    grid = Grid(1.0, 25)
    # the cap binds exactly, so roundoff in the node spacing may leave a
    # one-ulp excess in some cells
    v, e = pb.feasibility_residual(case.problem, _line(grid))
    assert v == pytest.approx(0.0, abs=1e-13)
    assert e == pytest.approx(0.0, abs=1e-13)


def test_capped_speed_violation_integrates_excess():
    case = get_case("p2")
    grid = Grid(1.0, 25)
    v, e = pb.feasibility_residual(case.problem, _line(grid, slope=2.0))
    assert v == pytest.approx(1.0)
    assert e == pytest.approx(0.0)


def test_shifted_endpoints_defect():
    case = get_case("p1")
    grid = Grid(1.0, 25)
    v, e = pb.feasibility_residual(case.problem, _line(grid, offset=0.1))
    assert v == 0.0
    assert e == pytest.approx(0.1 * np.sqrt(2.0))


def test_feasibility_zero_iff_pointwise_feasible():
    P = _make(
        omega1=Box([-1.0], [1.0]),
        omega2=Product([Singleton([0.0]), Reals(1)]),
    )
    grid = Grid(1.0, 10)
    # forward: feasible curve -> exactly zero
    x = _line(grid, slope=0.5)
    v, e = pb.feasibility_residual(P, x)
    assert v == 0.0 and e == 0.0
    # backward: any cell violation or endpoint gap shows up
    bad_cell = _line(grid, slope=1.5)
    v, e = pb.feasibility_residual(P, bad_cell)
    assert v > 1e-3
    bad_end = _line(grid, slope=0.5, offset=0.2)
    v, e = pb.feasibility_residual(P, bad_end)
    assert e > 1e-3


@pytest.mark.parametrize("omega1", [Box([-1.0], [1.0]), Reals(1)], ids=["box", "reals"])
def test_feasibility_rejects_an_overflowing_drift(omega1):
    # exp overflows to inf at x = 800: the velocity part is not a number to
    # measure, whatever the set
    P = _make(g=("exp(x1)",), omega1=omega1)
    with pytest.raises(ValueError, match="non-finite"):
        pb.feasibility_residual(P, _line(Grid(1.0, 4), slope=0.0, offset=800.0))


# ---------------------------------------------------------------------------
# validation / dataclass


def test_dimension_validation():
    with pytest.raises(pb.ProblemError, match="drift"):
        _make(g=("0", "0"))
    with pytest.raises(pb.ProblemError, match="velocity constraint"):
        _make(omega1=Reals(2))
    with pytest.raises(pb.ProblemError, match="endpoint constraint"):
        _make(omega2=Reals(3))


def test_profile_validation_on_trees():
    theta_with_endpoint_var = ex.parse("x0_1", 1, ex.PROFILE_TERMINAL)
    with pytest.raises(pb.ProblemError, match="outside its profile"):
        pb.ProblemSpec(
            n=1, T=1.0,
            phi=ex.parse("0", 1, ex.PROFILE_TERMINAL),
            theta=theta_with_endpoint_var,
            g=[ex.parse("0", 1, ex.PROFILE_DRIFT)],
            omega1=Reals(1), omega2=Reals(2),
        )


def test_declared_lipschitz_short_circuits_estimation():
    P = _make(ell=7.5)
    grid = Grid(1.0, 10)
    est = pb.estimate_lipschitz(P, _line(grid))
    assert est.value == 7.5 and est.provenance == "declared"


@pytest.mark.parametrize("ell", [0.0, -1.0, np.inf, np.nan])
def test_declared_lipschitz_must_be_positive_and_finite(ell):
    # an infinite modulus would make the norm bound |lambda| <= inf vacuous
    with pytest.raises(pb.ProblemError, match="Lipschitz"):
        _make(ell=ell)
