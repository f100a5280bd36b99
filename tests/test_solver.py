import math

import numpy as np
import pytest

import bolzakit.cq as cq
import bolzakit.problem as pb
import bolzakit.solver as sv
from bolzakit import expr as ex
from bolzakit.catalog import get_case
from bolzakit.convex import (Ball, Box, Product, Reals, Singleton,
                             normal_cone_residual, project)
from bolzakit.funspace import Grid, Trajectory, tail_sums
from bolzakit.optimality import certify

from oracles import dense_block_tridiagonal, fit_order


def _line(grid, slope=1.0, offset=0.0):
    return Trajectory(grid, (offset + slope * grid.nodes())[:, None])


def _curved_problem():
    return pb.ProblemSpec(
        n=1,
        T=1.0,
        phi=ex.parse("0", 1, ex.PROFILE_TERMINAL),
        theta=ex.parse("v1^2/2 + sin(x1)", 1, ex.PROFILE_RUNNING),
        g=[ex.parse("0", 1, ex.PROFILE_DRIFT)],
        omega1=Reals(1),
        omega2=Singleton([0.0, 1.0]),
    )


# ---------------------------------------------------------------------------
# analytic targets


def test_solve_pinned_line():
    case = get_case("p1")
    r = sv.solve(case.problem, sv.SolverConfig(grid_N=200))
    assert r.converged
    grid = r.x.grid
    assert np.abs(r.x.values[:, 0] - grid.nodes()).max() <= 1e-3
    assert abs(r.objective - 0.5) <= 1e-3
    assert np.abs(r.mu.values).max() <= 1e-6  # unconstrained velocity


def test_solve_capped_speed():
    case = get_case("p2")
    r = sv.solve(case.problem, sv.SolverConfig(grid_N=200))
    assert r.converged
    grid = r.x.grid
    assert np.abs(r.x.values[:, 0] - grid.nodes()).max() <= 1e-2
    assert np.abs(r.mu.values - 1.0).max() <= 5e-2


def test_warm_start_at_optimum_converges_immediately():
    case = get_case("p1")
    cfg = sv.SolverConfig(grid_N=100)
    warm = _line(Grid(1.0, 100))
    r = sv.solve(case.problem, cfg, warm_start=warm)
    assert r.converged
    assert len(r.history) == 1
    assert np.array_equal(r.x.values, warm.values)


def test_objective_never_beats_feasible_comparison_by_much():
    for cid in ("p1", "p2", "p3", "p4"):
        case = get_case(cid)
        r = sv.solve(case.problem, sv.SolverConfig(grid_N=150))
        comparison = case.x_star(r.x.grid)
        J_cmp = pb.evaluate_cost(case.problem, comparison)
        assert r.objective <= J_cmp + 1e-2 * (1.0 + abs(case.J_star))
        # the reported objective is the cost of the returned trajectory and,
        # on convergence, the last history row's
        assert r.objective == pb.evaluate_cost(case.problem, r.x)
        if r.converged:
            assert r.objective == r.history[-1]["objective"]


def test_dual_feasibility_at_convergence():
    # each cell multiplier is an outward normal at its slack point
    for cid in ("p2", "p4"):
        case = get_case(cid)
        r = sv.solve(case.problem, sv.SolverConfig(grid_N=120))
        assert r.converged
        img = pb.apply_constraint(case.problem, r.x)
        slack = project(case.problem.omega1, img.velocity_part.values)
        scale = 1.0 + np.linalg.norm(r.mu.values, axis=1)
        probe = r.mu.values / scale[:, None]
        res = normal_cone_residual(case.problem.omega1, slack, probe)
        assert float(np.asarray(res).max()) <= 1e-4
        z = project(case.problem.omega2, img.endpoints)
        s = np.concatenate([r.s1, r.s2])
        s_res = normal_cone_residual(
            case.problem.omega2, z, s / (1.0 + np.linalg.norm(s))
        )
        assert float(s_res) <= 1e-4


@pytest.mark.parametrize("N", [20, 50, 200])
def test_stop_waits_for_multipliers_in_the_normal_cones(N):
    # min int v^2/2 + x(T)^2/2 with x(0) >= 0.25: the optimum pins x(0) at
    # its bound, with x' = -0.125.  A stop test on feasibility and
    # stationarity alone accepts x(0) = 0.262 inside the box after one outer
    # iteration, with an endpoint multiplier that is not a normal there.
    P = pb.ProblemSpec(
        n=1,
        T=1.0,
        phi=ex.parse("xT_1^2/2", 1, ex.PROFILE_TERMINAL),
        theta=ex.parse("v1^2/2", 1, ex.PROFILE_RUNNING),
        g=[ex.parse("0", 1, ex.PROFILE_DRIFT)],
        omega1=Box([-0.5], [0.5]),
        omega2=Box([0.25, -1.0], [1.25, 1.0]),
    )
    r = sv.solve(P, sv.SolverConfig(grid_N=N))
    assert r.converged
    assert abs(r.x.values[0, 0] - 0.25) <= 1e-6
    assert certify(P, r.x, r.mu, r.s1, r.s2).passed


def test_determinism_bitwise():
    case = get_case("p2")
    cfg = sv.SolverConfig(grid_N=120)
    r1 = sv.solve(case.problem, cfg)
    r2 = sv.solve(case.problem, cfg)
    assert r1.history == r2.history
    assert np.array_equal(r1.x.values, r2.x.values)
    assert np.array_equal(r1.mu.values, r2.mu.values)


def test_grid_refinement_order_on_curved_instance():
    # the pinned-line and capped-speed targets are exactly representable on
    # every grid (their discrete optima coincide with the analytic curves),
    # so refinement order is measured on an instance with genuine
    # discretization error, against a fine-grid reference
    P = _curved_problem()
    cfg = lambda N: sv.SolverConfig(grid_N=N, feas_tol=1e-9, outer_iters=40)
    ref = sv.solve(P, cfg(1600))
    assert ref.converged
    errors = []
    hs = []
    for N in (50, 100, 200):
        r = sv.solve(P, cfg(N))
        assert r.converged
        stride = 1600 // N
        errors.append(
            float(np.abs(r.x.values[:, 0] - ref.x.values[::stride, 0]).max())
        )
        hs.append(1.0 / N)
    assert fit_order(hs, errors) >= 0.9, (hs, errors)


def test_exact_targets_stay_at_solver_noise_under_refinement():
    for cid in ("p1", "p2"):
        case = get_case(cid)
        for N in (50, 100, 200, 400):
            r = sv.solve(case.problem, sv.SolverConfig(grid_N=N))
            target = case.x_star(r.x.grid)
            assert np.abs(r.x.values - target.values).max() <= 1e-6


# ---------------------------------------------------------------------------
# inner loop: semismooth Newton in node coordinates


def _state(P, N, **cfg):
    """The state of a solve: one copy of the problem."""
    grid = Grid(P.T, N)
    return sv._AlmState(
        P, sv.SolverConfig(grid_N=N, **cfg), grid,
        lambda X: float(pb.cost(P, grid, X).sum()),
        lambda X: pb.cost_gradient(P, grid, X),
        lambda blocks, X: pb.add_cost_hessian(blocks, P, grid, X),
        sv._default_init(P, grid)[None],
    )


def _count_calls(monkeypatch, name, owner=sv._AlmState):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_gradient_evaluations_do_not_depend_on_grid(monkeypatch):
    evals = _count_calls(monkeypatch, "aug_value_and_grad")
    counts = []
    for N in (200, 1000, 4000):
        evals.clear()
        assert sv.solve(_curved_problem(), sv.SolverConfig(grid_N=N)).converged
        counts.append(len(evals))
    assert max(counts) <= 1.15 * min(counts), counts
    assert max(counts) <= 20, counts


def _ball_drift_problem():
    """The unit-ball velocity set with rotational drift, a pinned start and
    a terminal target the ball keeps out of reach."""
    n = 2
    return pb.ProblemSpec(
        n=n,
        T=1.0,
        phi=ex.parse("5*((xT_1-1.05)^2+(xT_2-1.08)^2)/2", n, ex.PROFILE_TERMINAL),
        theta=ex.parse("(v1^2+v2^2)/2+cos(x2)", n, ex.PROFILE_RUNNING),
        g=[ex.parse("0.5*x2", n, ex.PROFILE_DRIFT),
           ex.parse("-0.5*x1", n, ex.PROFILE_DRIFT)],
        omega1=Ball([0.0, 0.0], 1.0),
        omega2=Product([Singleton([0.0, 0.0]), Reals(2)]),
    )


@pytest.mark.parametrize("problem, most", [(_curved_problem, 6),
                                           (_ball_drift_problem, 7)],
                         ids=["curved", "ball-drift"])
def test_outer_iterations_do_not_depend_on_grid(problem, most):
    # the penalty grows after every infeasible outer iteration
    for N in (200, 1000, 4000):
        r = sv.solve(problem(), sv.SolverConfig(grid_N=N))
        assert r.converged
        assert len(r.history) <= most, (N, len(r.history))


@pytest.mark.parametrize("problem", [_curved_problem, _ball_drift_problem],
                         ids=["curved", "ball-drift"])
def test_each_point_is_evaluated_once(monkeypatch, problem):
    # the Hessian, the dual update, the outer measurement and the
    # complementarity test read the line search's evaluation: a constraint
    # image, a cost gradient and a cost for each augmented gradient, an
    # image and a cost for each augmented value, plus one of each for the
    # start; a shifted image for each augmented evaluation and
    # complementarity test
    shifted = _count_calls(monkeypatch, "_shifted")
    values = _count_calls(monkeypatch, "aug_value")
    grads = _count_calls(monkeypatch, "aug_value_and_grad")
    comps = _count_calls(monkeypatch, "complementarity")
    costs = _count_calls(monkeypatch, "cost", owner=pb)
    cost_grads = _count_calls(monkeypatch, "cost_gradient", owner=pb)
    images = _count_calls(monkeypatch, "constraint_image", owner=pb)
    assert sv.solve(problem(), sv.SolverConfig(grid_N=200)).converged
    assert len(shifted) == len(values) + len(grads) + len(comps)
    assert len(cost_grads) == len(grads) + 1
    assert len(costs) == len(values) + len(grads) + 1
    assert len(images) == len(values) + len(grads) + 1


def _coupled_problem():
    """n = 2 with a nonlinear drift, x-v coupling in theta, a terminal
    cost coupling x(0) and x(T), a ball velocity set and a ball endpoint
    set in R^4: every term of the Hessian, the corner block included."""
    n = 2
    return pb.ProblemSpec(
        n=n,
        T=1.0,
        phi=ex.parse("x0_1*xT_2 + xT_1^2/2", n, ex.PROFILE_TERMINAL),
        theta=ex.parse("(v1^2 + v2^2)/2 + x1*v2 + cos(x2)*x1^2/4", n,
                       ex.PROFILE_RUNNING),
        g=[ex.parse("sin(x2)", n, ex.PROFILE_DRIFT),
           ex.parse("x1*x2/2 - x1", n, ex.PROFILE_DRIFT)],
        omega1=Ball([0.2, -0.1], 0.8),
        omega2=Ball([0.1, 0.0, 0.5, -0.3], 0.3),
    )


def test_assembled_hessian_matches_finite_differences():
    P = _coupled_problem()
    N = 6
    state = _state(P, N)
    rng = np.random.default_rng(3)
    X = 0.05 * rng.normal(size=(1, N + 1, 2))
    state.mu = rng.normal(size=(1, N, 2))
    state.s = rng.normal(size=(1, 4))
    state.rho = 3.0
    W, E = pb.constraint_image(P, state.grid, X)
    outside = np.linalg.norm(W + state.mu / state.rho - P.omega1.center, axis=2) > 0.8
    assert outside.any() and not outside.all()  # both pieces of the ball
    assert np.linalg.norm(E + state.s / state.rho - P.omega2.center) > 0.3
    diag, upper, corner = state._aug_hessian(X, state.aug_value_and_grad(X)[3])
    assert np.abs(corner).max() > 0
    H = dense_block_tridiagonal(diag[:, :, 0], upper[:, :, 0], corner[:, :, 0])
    step = 1e-6
    fd = np.empty_like(H)
    for j in range(X.size):
        e = np.zeros(X.size)
        e[j] = step
        plus = state.aug_value_and_grad(X + e.reshape(X.shape))[1]
        minus = state.aug_value_and_grad(X - e.reshape(X.shape))[1]
        fd[:, j] = (plus - minus).reshape(-1) / (2 * step)
    assert np.abs(H - fd).max() <= 1e-6 * np.abs(H).max(), np.abs(H - fd).max()


def test_newton_direction_tends_to_metric_gradient_step():
    # a large shift tau turns (H + tau M) D = -G into tau D ~ -M^-1 G, whose
    # (x(0), velocity) coordinates are minus the tail sums of G
    state = _state(_curved_problem(), 50)
    X = state.X
    _, G, _, shifted = state.aug_value_and_grad(X)
    R = tail_sums(G[0])
    D, tau = state._newton_direction(X, G, shifted, 1e9)
    assert tau == 1e9
    coords = np.vstack([D[0, :1], np.diff(D[0], axis=0) / state.grid.h])
    np.testing.assert_allclose(tau * coords, -R, rtol=1e-6, atol=1e-6 * np.abs(R).max())


def test_newton_step_satisfies_secant_condition():
    # the Newton system holds the true Hessian H: along a short step eps D
    # the gradient changes by eps H D = -eps (G + tau M D), M the curve
    # metric (the start line's endpoints lie on the endpoint sphere, a
    # kink, so the test starts from a bent line inside)
    P = _coupled_problem()
    state = _state(P, 40)
    t = state.grid.nodes()[:, None]
    X = np.hstack([0.1 + 0.3 * t, -0.2 * t ** 2])[None]
    _, G, _, shifted = state.aug_value_and_grad(X)
    D, tau = state._newton_direction(X, G, shifted, 0.0)
    metric = pb.node_blocks(state.grid, 2, 1)
    sv._add_curve_metric(metric, state.grid, 1.0)
    M = dense_block_tridiagonal(*(block[:, :, 0] for block in metric))
    eps = 1e-6
    G_plus = state.aug_value_and_grad(X + eps * D)[1]
    G_minus = state.aug_value_and_grad(X - eps * D)[1]
    want = -G - tau * (M @ D.reshape(-1)).reshape(D.shape)
    np.testing.assert_allclose((G_plus - G_minus) / (2 * eps), want,
                               atol=1e-6 * np.abs(want).max())


def test_every_accepted_direction_descends(monkeypatch):
    searches = _count_calls(monkeypatch, "_line_search")
    for P, N in ((_curved_problem(), 200), (get_case("p2").problem, 120)):
        searches.clear()
        assert sv.solve(P, sv.SolverConfig(grid_N=N)).converged
        unit_steps = 0
        for (_, X, _, G, D, _), step in searches:
            assert np.einsum("bki,bki->", G, D) < 0.0
            unit_steps += step is not None and np.array_equal(step[0], X + D)
        assert unit_steps >= len(searches) // 2


def test_nonconvex_problem_shifts_and_converges(monkeypatch):
    # theta = v^2/2 - 2 x^2 has negative curvature: with x(0) held, the
    # smallest Rayleigh quotient of int u'^2 over int u^2 is pi^2/4 < 4, so
    # on the start line the Hessian is indefinite, a pivot fails and tau
    # grows; the solve still converges to a point that certifies
    directions = _count_calls(monkeypatch, "_newton_direction")
    P = pb.ProblemSpec(
        n=1,
        T=1.0,
        phi=ex.parse("0", 1, ex.PROFILE_TERMINAL),
        theta=ex.parse("v1^2/2 - 2*x1^2", 1, ex.PROFILE_RUNNING),
        g=[ex.parse("0", 1, ex.PROFILE_DRIFT)],
        omega1=Box([-1.0], [1.0]),
        omega2=Product([Singleton([0.1]), Reals(1)]),
    )
    r = sv.solve(P, sv.SolverConfig(grid_N=100))
    assert r.converged
    assert max(tau for _, (_, tau) in directions) > 0.0
    assert certify(P, r.x, r.mu, r.s1, r.s2).passed


def test_float_floor_ends_inner_loop(monkeypatch):
    # an inner tolerance below double resolution: the loop stops when the
    # line search along the Newton direction can neither decrease the
    # objective nor shrink the gradient, long before its step budget
    searches = _count_calls(monkeypatch, "_line_search")
    evals = _count_calls(monkeypatch, "aug_value_and_grad")
    state = _state(_curved_problem(), 100, inner_tol=1e-15)
    state.inner_minimize()
    _, last = searches[-1]
    assert last is None
    assert len(evals) < 100
    assert np.array_equal(state.X, state.point)


# ---------------------------------------------------------------------------
# feasibility restoration


def test_restore_feasible_point_is_identity():
    case = get_case("p2")
    grid = Grid(1.0, 60)
    x = _line(grid, slope=0.5)
    [res] = sv.restore_feasibility(case.problem, [x], sv.SolverConfig(grid_N=60))
    assert res.converged
    assert res.ac_gap <= 1e-9
    assert np.allclose(res.y.values, x.values, atol=1e-9)


def test_restore_clamps_speeding_curve():
    case = get_case("p2")
    grid = Grid(1.0, 100)
    [res] = sv.restore_feasibility(
        case.problem, [_line(grid, slope=2.0)], sv.SolverConfig(grid_N=100)
    )
    assert res.converged
    assert abs(res.ac_gap - 1.0) <= 5e-2
    assert np.abs(res.y.values[:, 0] - grid.nodes()).max() <= 1e-2


def test_restore_repins_shifted_line():
    case = get_case("p1")
    grid = Grid(1.0, 100)
    [res] = sv.restore_feasibility(
        case.problem, [_line(grid, offset=0.1)], sv.SolverConfig(grid_N=100)
    )
    assert res.converged
    assert res.ac_gap <= 0.1 * 1.5
    assert abs(res.ac_gap - 0.1) <= 5e-3
    v, e = pb.feasibility_residual(case.problem, res.y)
    assert v + e <= 1e-7


# ---------------------------------------------------------------------------
# failure modes


def test_unbounded_objective_detected():
    P = pb.ProblemSpec(
        n=1,
        T=1.0,
        phi=ex.parse("0", 1, ex.PROFILE_TERMINAL),
        theta=ex.parse("0 - v1^2", 1, ex.PROFILE_RUNNING),
        g=[ex.parse("0", 1, ex.PROFILE_DRIFT)],
        omega1=Reals(1),
        omega2=Reals(2),
    )
    # start away from the (maximizing) zero curve so descent can diverge
    warm = _line(Grid(1.0, 20))
    with pytest.raises(sv.UnboundedError, match="unbounded below"):
        sv.solve(P, sv.SolverConfig(grid_N=20, outer_iters=5), warm_start=warm)


def test_domain_error_carries_snapshot():
    P = pb.ProblemSpec(
        n=1,
        T=1.0,
        phi=ex.parse("0", 1, ex.PROFILE_TERMINAL),
        theta=ex.parse("log(x1)", 1, ex.PROFILE_RUNNING),
        g=[ex.parse("0", 1, ex.PROFILE_DRIFT)],
        omega1=Reals(1),
        omega2=Reals(2),
    )
    # default init is the zero curve: log(0) fails immediately
    with pytest.raises(sv.SolverError) as err:
        sv.solve(P, sv.SolverConfig(grid_N=10, outer_iters=3))
    assert err.value.snapshot is not None
    # from x = 1 the first line-search trial overshoots into x <= 0: the
    # snapshot is that failing trial, not the last accepted iterate
    P = pb.ProblemSpec(
        n=1,
        T=1.0,
        phi=ex.parse("0", 1, ex.PROFILE_TERMINAL),
        theta=ex.parse("log(x1) + (v1 + 5)^2/2", 1, ex.PROFILE_RUNNING),
        g=[ex.parse("0", 1, ex.PROFILE_DRIFT)],
        omega1=Reals(1),
        omega2=Reals(2),
    )
    warm = Trajectory(Grid(1.0, 10), np.ones((11, 1)))
    with pytest.raises(sv.SolverError) as err:
        sv.solve(P, sv.SolverConfig(grid_N=10), warm_start=warm)
    assert err.value.snapshot.shape == (11, 1)
    assert err.value.snapshot.min() <= 0.0


def test_projection_error_carries_snapshot(monkeypatch):
    from bolzakit import convex as cx

    P = pb.ProblemSpec(
        n=1,
        T=1.0,
        phi=ex.parse("0", 1, ex.PROFILE_TERMINAL),
        theta=ex.parse("(v1 - 2)^2/2", 1, ex.PROFILE_RUNNING),
        g=[ex.parse("0", 1, ex.PROFILE_DRIFT)],
        omega1=cx.Polyhedron([[1.0]], [1.0]),
        omega2=Reals(2),
    )

    def failing(S, Y):
        raise cx.ProjectionError("forced failure", 1.0)

    monkeypatch.setattr(cx, "_project_polyhedron", failing)
    warm = _line(Grid(1.0, 10), slope=0.5)
    with pytest.raises(sv.SolverError, match="projection failed") as err:
        sv.solve(P, sv.SolverConfig(grid_N=10), warm_start=warm)
    assert isinstance(err.value.__cause__, cx.ProjectionError)
    assert np.array_equal(err.value.snapshot, warm.values)


def test_nonconvergence_reported_not_raised():
    case = get_case("p2")
    r = sv.solve(
        case.problem,
        sv.SolverConfig(grid_N=60, outer_iters=2, feas_tol=1e-12, inner_tol=1e-12),
    )
    assert not r.converged
    assert len(r.history) == 2
    assert r.objective == pb.evaluate_cost(case.problem, r.x)


def test_restorations_take_few_outer_iterations(monkeypatch):
    # the probe's restorations are the copies of one ALM: its dual updates
    # serve every sample at once
    updates = _count_calls(monkeypatch, "update_duals")
    P = _ball_drift_problem()
    cfg = sv.SolverConfig(grid_N=50)
    xbar = sv.solve(P, cfg).x
    updates.clear()
    res = cq.probe_kappa(P, xbar, samples=12, delta=0.1, seed=1, cfg=cfg)
    assert res.admitted == 12
    assert len(updates) <= 5, len(updates)


def _ball_ends_problem():
    """A speed cap and a ball of endpoint pairs in R^2: the endpoint
    penalty couples x(0) and x(T), so the Newton systems have corners."""
    return pb.ProblemSpec(
        n=1,
        T=1.0,
        phi=ex.parse("0", 1, ex.PROFILE_TERMINAL),
        theta=ex.parse("v1^2/2", 1, ex.PROFILE_RUNNING),
        g=[ex.parse("0", 1, ex.PROFILE_DRIFT)],
        omega1=Box([-1.0], [1.0]),
        omega2=Ball([0.0, 0.5], 0.2),
    )


@pytest.mark.parametrize("outer_iters", [60, 1])
def test_restoring_copies_matches_one_curve_restorations(monkeypatch, outer_iters):
    # a feasible line (converged at the start), lines that leave the ball
    # and the speed cap, and a wiggle; with one outer iteration only the
    # feasible line converges, and each copy says so itself
    P = _ball_ends_problem()
    grid = Grid(1.0, 60)
    t = grid.nodes()[:, None]
    xs = [_line(grid, slope=0.5), _line(grid, slope=2.0),
          _line(grid, slope=-0.5, offset=0.3),
          Trajectory(grid, 0.4 * t + 0.3 * np.sin(9.0 * t))]
    cfg = sv.SolverConfig(grid_N=60, outer_iters=outer_iters)
    corners = []
    original = sv._AlmState._aug_hessian

    def recorded(self, X, shifted):
        blocks = original(self, X, shifted)
        corners.append(np.abs(blocks[2]).max())
        return blocks

    monkeypatch.setattr(sv._AlmState, "_aug_hessian", recorded)
    together = sv.restore_feasibility(P, xs, cfg)
    assert max(corners) > 0
    alone = [sv.restore_feasibility(P, [x], cfg)[0] for x in xs]
    assert len(together) == len(xs)
    for a, b in zip(together, alone):
        assert a.converged == b.converged
        # a nonconverged copy stops at an inexact inner minimizer: the
        # joint inner loop may take it one Newton step further
        assert abs(a.ac_gap - b.ac_gap) <= (1e-9 if a.converged else 1e-6)
    flags = [r.converged for r in together]
    assert flags == ([True] * 4 if outer_iters > 1 else [True, False, False, False])


def test_restore_nonconvergence_flags_bound_unverified():
    case = get_case("p2")
    grid = Grid(1.0, 60)
    cfg = sv.SolverConfig(grid_N=60, outer_iters=1, feas_tol=1e-12,
                          inner_tol=1e-13)
    [res] = sv.restore_feasibility(case.problem, [_line(grid, slope=2.0)], cfg)
    assert not res.converged  # the gap is still returned, just unverified
    assert res.ac_gap >= 0.0


def test_warm_start_grid_mismatch_rejected():
    case = get_case("p1")
    with pytest.raises(sv.SolverError, match="warm start"):
        sv.solve(case.problem, sv.SolverConfig(grid_N=50), warm_start=_line(Grid(1.0, 40)))


def test_config_validation():
    with pytest.raises(ValueError):
        sv.SolverConfig(feas_tol=1e-13)
    with pytest.raises(ValueError):
        sv.SolverConfig(penalty_growth=0.5)
