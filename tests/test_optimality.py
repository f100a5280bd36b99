import math

import numpy as np
import pytest

import bolzakit.optimality as opt
import bolzakit.problem as pb
import bolzakit.solver as sv
from bolzakit import expr as ex
from bolzakit.catalog import get_case
from bolzakit.convex import (
    Ball, Box, Polyhedron, Product, Reals, Singleton, normal_cone_residual,
    project, support,
)
from bolzakit.funspace import CellPath, Grid, Trajectory


def _line(grid, slope=1.0, offset=0.0):
    return Trajectory(grid, (offset + slope * grid.nodes())[:, None])


def _cells(grid, value):
    return CellPath(grid, np.full((grid.N, 1), float(value)))


def _parabola(grid, coeff=1.0):
    t = grid.nodes()
    return Trajectory(grid, (coeff * t**2)[:, None])


def _image(P, x):
    """(W, E): the velocity part projected onto Omega1, and the endpoints."""
    W, E = pb.constraint_image(P, x.grid, x.values)
    return project(P.omega1, W), E


def _mu_of_adjoint(P, x, p_values):
    """The density whose staggered adjoint is p on nodes 1..N:
    mu_k = p_{k+1} - theta_v,k."""
    grid = x.grid
    _, theta_v = P.theta_grad_cells(grid.cell_lefts(), x.values[:-1], x.velocities())
    return CellPath(grid, np.broadcast_to(p_values, (grid.N + 1, P.n))[1:] - theta_v)


# ---------------------------------------------------------------------------
# adjoint reconstruction


def test_adjoint_line_problem():
    case = get_case("p1")
    grid = Grid(1.0, 40)
    p = opt.reconstruct_adjoint(case.problem, _line(grid), _cells(grid, 0.0))
    assert np.allclose(p.values, 1.0)


def test_adjoint_capped_speed():
    case = get_case("p2")
    grid = Grid(1.0, 40)
    p = opt.reconstruct_adjoint(case.problem, _line(grid), _cells(grid, 1.0))
    assert np.allclose(p.values, 0.0, atol=1e-12)


def test_adjoint_zero_when_cost_velocity_free():
    case = get_case("p3")
    grid = Grid(1.0, 40)
    p = opt.reconstruct_adjoint(
        case.problem, Trajectory(grid, np.zeros((41, 1))), _cells(grid, 0.0)
    )
    assert np.allclose(p.values, 0.0)


# ---------------------------------------------------------------------------
# adjoint-equation residual


def test_el_zero_on_analytic_pairs():
    for cid, mu_val in (("p1", 0.0), ("p2", 1.0)):
        case = get_case(cid)
        grid = Grid(1.0, 100)
        x = case.x_star(grid)
        L = opt.stationarity(case.problem, x, _cells(grid, mu_val))
        assert opt.el_residual(L) <= 1e-11


def test_el_detects_tilted_adjoint():
    case = get_case("p1")
    delta = 0.75
    for N in (50, 200):
        grid = Grid(1.0, N)
        x = _line(grid)
        p = (1.0 + delta * grid.nodes())[:, None]
        mu = _mu_of_adjoint(case.problem, x, p)
        assert np.allclose(
            opt.reconstruct_adjoint(case.problem, x, mu).values[1:], p[1:]
        )
        res = opt.el_residual(opt.stationarity(case.problem, x, mu))
        assert abs(res - delta * 1.0) <= 5.0 / N + 1e-9


# ---------------------------------------------------------------------------
# maximization gap


def test_wp_zero_on_capped_speed_analytic():
    case = get_case("p2")
    grid = Grid(1.0, 60)
    x = _line(grid)
    W, _ = _image(case.problem, x)
    gap_max, gap_l1, cells = opt.weierstrass_gap(
        case.problem, W, _cells(grid, 1.0).values, grid.h
    )
    assert gap_max <= 1e-10
    assert gap_l1 <= 1e-10


def test_wp_whole_space_gap_finite_iff_direction_zero():
    case = get_case("p1")
    grid = Grid(1.0, 30)
    x = _line(grid)
    W, _ = _image(case.problem, x)
    gap_max, _, _ = opt.weierstrass_gap(
        case.problem, W, _cells(grid, 0.0).values, grid.h
    )
    assert gap_max == 0.0
    mu_bad = _mu_of_adjoint(case.problem, x, 1.5)  # p = 1.5: mu = 0.5
    gap_max, _, _ = opt.weierstrass_gap(case.problem, W, mu_bad.values, grid.h)
    assert math.isinf(gap_max)


def test_wp_gap_cells_never_meaningfully_negative():
    rng = np.random.default_rng(31)
    for cid in ("p2", "p4"):
        case = get_case(cid)
        r = sv.solve(case.problem, sv.SolverConfig(grid_N=80))
        W, _ = _image(case.problem, r.x)
        _, _, cells = opt.weierstrass_gap(case.problem, W, r.mu.values, r.x.grid.h)
        assert min(cells) >= -1e-9


def test_wp_alone_does_not_discriminate_corrupted_adjoint():
    # shifting the capped-speed adjoint to 0.5 keeps the maximization and
    # adjoint equations happy; only transversality catches it
    case = get_case("p2")
    grid = Grid(1.0, 50)
    x = _line(grid)
    mu = _cells(grid, 1.5)  # makes the reconstructed p identically 0.5
    p = opt.reconstruct_adjoint(case.problem, x, mu)
    assert np.allclose(p.values, 0.5)
    W, E = _image(case.problem, x)
    L = opt.stationarity(case.problem, x, mu)
    gap_max, _, _ = opt.weierstrass_gap(case.problem, W, mu.values, grid.h)
    assert gap_max <= 1e-10
    assert opt.el_residual(L) <= 1e-12
    tr = opt.transversality_residual(case.problem, E, L)
    assert tr == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# transversality


def test_transversality_trivial_at_singleton():
    case = get_case("p1")
    grid = Grid(1.0, 20)
    x = _line(grid)
    L = opt.stationarity(case.problem, x, _mu_of_adjoint(case.problem, x, 123.0))
    assert opt.endpoint_multipliers(L) == pytest.approx([123.0, -123.0])
    _, E = _image(case.problem, x)
    assert opt.transversality_residual(case.problem, E, L) == 0.0


def test_transversality_capped_speed_analytic_and_corrupted():
    case = get_case("p2")
    grid = Grid(1.0, 20)
    x = _line(grid)
    _, E = _image(case.problem, x)

    def tr(p):
        mu = _mu_of_adjoint(case.problem, x, p)
        L = opt.stationarity(case.problem, x, mu)
        return opt.transversality_residual(case.problem, E, L)

    assert tr(0.0) == pytest.approx(0.0)
    # (p(0), -p(T)) = (1, -1): the free-endpoint component must vanish
    assert tr(1.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# multiplier membership


def test_mu_membership_zero_multiplier():
    case = get_case("p3")
    grid = Grid(1.0, 25)
    x = Trajectory(grid, np.zeros((26, 1)))
    W, _ = _image(case.problem, x)
    assert opt.mu_membership(case.problem, W, _cells(grid, 0.0).values) == 0.0


def test_mu_membership_capped_speed():
    case = get_case("p2")
    grid = Grid(1.0, 25)
    x = _line(grid)
    W, _ = _image(case.problem, x)
    assert opt.mu_membership(case.problem, W, _cells(grid, 1.0).values) <= 1e-12
    # inward-pointing density is not a normal
    inward = _cells(grid, -1.0).values
    assert opt.mu_membership(case.problem, W, inward) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# certify


def test_certify_capped_speed_analytic_bundle():
    case = get_case("p2")
    grid = Grid(1.0, 200)
    rep = opt.certify(
        case.problem,
        case.x_star(grid),
        case.mu_star(grid),
        case.s1_star,
        case.s2_star,
    )
    assert rep.passed
    for value in (
        rep.el_residual_l1,
        rep.wp_gap_max,
        rep.transversality_residual,
        rep.mu_membership_max,
        rep.endpoint_consistency_defect,
    ):
        assert value <= 1e-8
    assert rep.lambda_norm == pytest.approx(1.0)


def test_certify_state_cost_instance_with_endpoint_inclusion():
    case = get_case("p3")
    grid = Grid(1.0, 100)
    rep = opt.certify(
        case.problem,
        case.x_star(grid),
        case.mu_star(grid),
        case.s1_star,
        case.s2_star,
    )
    assert rep.passed
    assert rep.integrated_endpoint_residual == pytest.approx(0.0, abs=1e-10)


def test_integrated_endpoint_residual_off_the_optimum():
    # flat x = 0.5 on p3: h sum_k theta_x = 0.5, both endpoints are interior
    # to the endpoint box, and with zero drift the density drops out
    case = get_case("p3")
    grid = Grid(1.0, 200)
    x = Trajectory(grid, np.full((201, 1), 0.5))
    for mu_val in (0.0, 0.3):
        rep = opt.certify(case.problem, x, _cells(grid, mu_val), [0.0], [0.0])
        assert rep.integrated_endpoint_residual == pytest.approx(0.5, abs=1e-12)


def test_certify_fails_corrupted_trajectory():
    case = get_case("p1")
    grid = Grid(1.0, 100)
    x = _parabola(grid)  # endpoints still (0, 1)
    rep = opt.certify(
        case.problem, x, _cells(grid, 0.0), np.array([1.0]), np.array([-1.0])
    )
    assert not rep.passed
    assert rep.el_residual_l1 > 0.5
    assert rep.verdicts["el"] == "fail"


def test_certify_bound_check_uses_kappa_and_ell():
    case = get_case("p2")
    grid = Grid(1.0, 100)
    rep = opt.certify(
        case.problem,
        case.x_star(grid),
        case.mu_star(grid),
        case.s1_star,
        case.s2_star,
        kappa=2.0,
        kappa_provenance="probed lower bound",
    )
    assert rep.kappa == 2.0
    assert rep.ell is not None and rep.ell_provenance == "estimated"
    assert rep.bound_satisfied is (rep.lambda_norm <= rep.kappa_ell_bound)
    assert rep.verdicts["bound"] in ("pass", "fail")
    # declared modulus short-circuits estimation
    case.problem.lipschitz_ell = 3.0
    rep2 = opt.certify(
        case.problem, case.x_star(grid), case.mu_star(grid),
        case.s1_star, case.s2_star, kappa=2.0,
    )
    assert rep2.ell == 3.0 and rep2.ell_provenance == "declared"
    assert rep2.kappa_ell_bound == pytest.approx(6.0)


def test_certify_makes_one_support_call(monkeypatch):
    # the WP check reads every cell through one batched support query
    calls = []

    def counted(S, xi, zero_tol=0.0):
        calls.append(np.shape(xi))
        return support(S, xi, zero_tol=zero_tol)

    monkeypatch.setattr(opt, "support", counted)
    case = get_case("p2")
    grid = Grid(1.0, 50)
    rep = opt.certify(case.problem, case.x_star(grid), case.mu_star(grid),
                      case.s1_star, case.s2_star, kappa=2.0)
    assert rep.passed
    assert calls == [(50, 1)]  # every cell of mu_star is live


def test_certify_infeasible_candidate_fails_cleanly():
    case = get_case("p2")
    grid = Grid(1.0, 50)
    rep = opt.certify(
        case.problem,
        _line(grid, slope=2.0),
        _cells(grid, 1.0),
        np.array([0.0]),
        np.array([0.0]),
    )
    assert not rep.passed
    assert rep.verdicts["feasibility"] == "fail"


def test_certify_solver_output_all_cases():
    for cid in ("p1", "p2", "p3", "p4"):
        case = get_case(cid)
        r = sv.solve(case.problem, sv.SolverConfig(grid_N=400))
        assert r.converged
        rep = opt.certify(case.problem, r.x, r.mu, r.s1, r.s2)
        assert rep.passed, (cid, rep.to_dict())


def test_certify_defaults_endpoint_multipliers_to_stationarity_rows():
    # a missing s1 or s2 is the half of -(L_0, L_N) that closes the first or
    # last stationarity row: the report equals the one for the explicit pair
    case = get_case("p4")
    r = sv.solve(case.problem, sv.SolverConfig(grid_N=100))
    n = case.problem.n
    xi = opt.endpoint_multipliers(opt.stationarity(case.problem, r.x, r.mu))
    want = opt.certify(case.problem, r.x, r.mu, xi[:n], xi[n:], kappa=2.0).to_dict()
    assert opt.certify(case.problem, r.x, r.mu, kappa=2.0).to_dict() == want
    assert opt.certify(case.problem, r.x, r.mu, s1=xi[:n], kappa=2.0).to_dict() == want
    assert opt.certify(case.problem, r.x, r.mu, s2=xi[n:], kappa=2.0).to_dict() == want


def _problem(n, theta, drift, omega1, omega2, phi="0"):
    return pb.ProblemSpec(
        n=n,
        T=1.0,
        phi=ex.parse(phi, n, ex.PROFILE_TERMINAL),
        theta=ex.parse(theta, n, ex.PROFILE_RUNNING),
        g=[ex.parse(gi, n, ex.PROFILE_DRIFT) for gi in drift],
        omega1=omega1,
        omega2=omega2,
    )


_SIN = _problem(1, "v1^2/2+sin(x1)", ["0"], Reals(1), Singleton([0.0, 1.0]))
_BOX = _problem(
    3, "((v1-1.5)^2+(v2+1.2)^2+(v3-0.8)^2)/2+(x1^2+x2^2+x3^2)/2",
    ["x2", "x3-x1", "x1-x2"], Box([-1.0] * 3, [1.0] * 3),
    Product([Singleton([0.0] * 3), Reals(3)]),
)


def _rot(angle):
    return [math.cos(angle), math.sin(angle)]


def _lit(value):
    """A real as an expression literal (the grammar has no signed ones)."""
    return f"({value!r})"


def _wedge(target_angle, axis=1.0, half=0.1):
    """Velocities in the wedge of half-angle ``half`` around the axis at
    angle ``axis``, a unit target velocity at ``target_angle`` and a pinned
    start."""
    c = _rot(target_angle)
    return _problem(
        2, f"((v1-{_lit(c[0])})^2+(v2-{_lit(c[1])})^2)/2", ["0", "0"],
        Polyhedron([_rot(axis + half + math.pi / 2), _rot(axis - half - math.pi / 2)],
                   [0.0, 0.0]),
        Product([Singleton([0.0, 0.0]), Reals(2)]),
    )


# the target beyond the + face projects onto it; the one opposite the axis
# lies in the polar cone, so the optimum rests at the apex
_FACE = _wedge(1.0 + 0.1 + 0.5)
_APEX = _wedge(1.0 + math.pi)
_X0 = [0.01, -0.015]
_Z = [x + 1.5 * r for x, r in zip(_X0, _rot(0.8))]
_BALL = _problem(
    2, "(v1^2+v2^2)/2+cos(x2)", ["0.5*x2", "-0.5*x1"], Ball([0.0, 0.0], 1.0),
    Product([Singleton(_X0), Reals(2)]),
    phi=f"5*((xT_1-{_lit(_Z[0])})^2+(xT_2-{_lit(_Z[1])})^2)/2",
)


@pytest.mark.parametrize(
    "P, N", [(_SIN, 200), (_SIN, 1000), (_BOX, 20), (_BOX, 200), (_BOX, 4000),
             (_FACE, 20), (_FACE, 200), (_APEX, 20), (_APEX, 200),
             (_BALL, 20), (_BALL, 200)],
    ids=["sin-N200", "sin-N1000", "box-N20", "box-N200", "box-N4000",
         "face-N20", "face-N200", "apex-N20", "apex-N200",
         "ball-N20", "ball-N200"],
)
def test_certify_accepts_solver_kkt_point(P, N):
    # the certificate checks the transcription's own stationarity system,
    # so the solver's converged output passes at default tolerances on
    # every grid (a cell-averaged adjoint failed EL and WP here by O(h))
    r = sv.solve(P, sv.SolverConfig(grid_N=N))
    assert r.converged
    rep = opt.certify(P, r.x, r.mu, r.s1, r.s2)
    assert rep.passed, (N, rep.to_dict())
    assert rep.el_residual_l1 <= 1e-5
    assert math.isfinite(rep.wp_gap_max)


# ---------------------------------------------------------------------------
# structural identities


def test_endpoint_consistency_matches_transversality_decomposition():
    # with s derived from the adjoint boundary values, the transversality
    # residual is exactly the endpoint-pair normal-cone defect of (s1, s2)
    case = get_case("p2")
    grid = Grid(1.0, 30)
    x = _line(grid)
    mu = _cells(grid, 0.7)
    p = opt.reconstruct_adjoint(case.problem, x, mu)
    gx0, gxT = case.problem.phi_gradients(x.values[0], x.values[-1])
    s1 = p.values[0] - gx0
    s2 = -p.values[-1] - gxT
    endpoints = np.concatenate([x.values[0], x.values[-1]])
    L = opt.stationarity(case.problem, x, mu)
    lhs = opt.transversality_residual(case.problem, endpoints, L)
    rhs = float(
        normal_cone_residual(
            case.problem.omega2, endpoints, np.concatenate([s1, s2])
        )
    )
    assert lhs == pytest.approx(rhs, abs=1e-14)
    rep = opt.certify(case.problem, x, mu, s1, s2)
    assert rep.endpoint_consistency_defect <= 1e-14


def test_stationarity_rows_are_the_transcription_adjoint_equation():
    # L's rows are the discrete adjoint equation and the two endpoint rows,
    # and reconstruct_adjoint is the staggered arc they imply
    P = _problem(2, "(v1^2+v2^2)/2+x1*v2+cos(x2)", ["x2^2", "t*x1"],
                 Reals(2), Reals(4), phi="x0_1*xT_2+xT_1^2")
    grid = Grid(1.0, 30)
    rng = np.random.default_rng(4)
    x = Trajectory(grid, rng.standard_normal((31, 2)))
    mu = CellPath(grid, rng.standard_normal((30, 2)))
    L = opt.stationarity(P, x, mu)
    t, X, V = grid.cell_lefts(), x.values[:-1], x.velocities()
    theta_x, theta_v = P.theta_grad_cells(t, X, V)
    G = P.g_jacobian_cells(t, X)
    rhs = grid.h * (theta_x + np.einsum("kij,ki->kj", G, mu.values))
    d = theta_v + mu.values
    gx0, gxT = P.phi_gradients(x.values[0], x.values[-1])
    assert np.allclose(L[1:-1], rhs[1:] - (d[1:] - d[:-1]), rtol=0, atol=1e-12)
    assert np.allclose(L[0], rhs[0] - d[0] + gx0, rtol=0, atol=1e-12)
    assert np.allclose(L[-1], d[-1] + gxT, rtol=0, atol=1e-12)
    p = opt.reconstruct_adjoint(P, x, mu).values
    assert np.allclose(p[1:], d, rtol=0, atol=1e-12)
    assert np.allclose(np.diff(p, axis=0)[1:], rhs[1:] - L[1:-1], rtol=0, atol=1e-12)
    xi = opt.endpoint_multipliers(L)
    assert np.allclose(xi, np.concatenate([p[0] - gx0, -p[-1] - gxT]),
                       rtol=0, atol=1e-12)


def _scaled_capped_speed(c: float) -> pb.ProblemSpec:
    return pb.ProblemSpec(
        n=1,
        T=1.0,
        phi=ex.parse("0", 1, ex.PROFILE_TERMINAL),
        theta=ex.parse(f"{c}*(v1-2)^2/2", 1, ex.PROFILE_RUNNING),
        g=[ex.parse("0", 1, ex.PROFILE_DRIFT)],
        omega1=Box([-np.inf], [1.0]),
        omega2=Product([Singleton([0.0]), Reals(1)]),
    )


def test_residual_homogeneity_under_cost_scaling():
    # scaling the running cost by c > 0 and the multipliers along with it
    # scales the adjoint and maximization defects by exactly c
    grid = Grid(1.0, 40)
    t = grid.nodes()
    x = Trajectory(grid, (0.5 * t**2)[:, None])  # v = t <= 1: feasible
    base = None
    for c in (1.0, 2.5):
        P = _scaled_capped_speed(c)
        mu = _cells(grid, c)
        el = opt.el_residual(opt.stationarity(P, x, mu))
        W, _ = _image(P, x)
        gap_max, gap_l1, _ = opt.weierstrass_gap(P, W, mu.values, grid.h)
        if base is None:
            base = (el, gap_max, gap_l1)
        else:
            assert el == pytest.approx(2.5 * base[0], rel=1e-12)
            assert gap_max == pytest.approx(2.5 * base[1], rel=1e-12)
            assert gap_l1 == pytest.approx(2.5 * base[2], rel=1e-12)
    assert base[0] > 0.1 and base[1] > 0.1  # the scaling test is not vacuous


def test_analytic_residuals_stay_at_noise_floor_under_refinement():
    # the catalog's closed-form bundles satisfy the optimality system
    # exactly on every grid, so their residuals sit at roundoff level and
    # halving h just keeps them there
    for cid in ("p1", "p2", "p3", "p4"):
        case = get_case(cid)
        for N in (250, 500, 1000):
            grid = Grid(case.problem.T, N)
            rep = opt.certify(
                case.problem,
                case.x_star(grid),
                case.mu_star(grid),
                case.s1_star,
                case.s2_star,
            )
            assert rep.passed
            assert rep.el_residual_l1 <= 1e-10
            assert rep.wp_gap_max <= 1e-10


def test_report_text_carries_condition_tags():
    case = get_case("p2")
    grid = Grid(1.0, 50)
    rep = opt.certify(
        case.problem, case.x_star(grid), case.mu_star(grid),
        case.s1_star, case.s2_star,
    )
    text = rep.render_text()
    for tag in ("[FEAS", "[EL", "[WP", "[TR", "[NC", "[BOUND"):
        assert tag in text
    assert "PASS" in text
