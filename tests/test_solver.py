import math

import numpy as np
import pytest

import bolzakit.problem as pb
import bolzakit.solver as sv
from bolzakit import expr as ex
from bolzakit.catalog import get_case
from bolzakit.convex import Reals, Singleton, normal_cone_residual, project
from bolzakit.funspace import Grid, Trajectory

from oracles import fit_order


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
# feasibility restoration


def test_restore_feasible_point_is_identity():
    case = get_case("p2")
    grid = Grid(1.0, 60)
    x = _line(grid, slope=0.5)
    res = sv.restore_feasibility(case.problem, x, sv.SolverConfig(grid_N=60))
    assert res.converged
    assert res.ac_gap <= 1e-9
    assert np.allclose(res.y.values, x.values, atol=1e-9)


def test_restore_clamps_speeding_curve():
    case = get_case("p2")
    grid = Grid(1.0, 100)
    res = sv.restore_feasibility(
        case.problem, _line(grid, slope=2.0), sv.SolverConfig(grid_N=100)
    )
    assert res.converged
    assert abs(res.ac_gap - 1.0) <= 5e-2
    assert np.abs(res.y.values[:, 0] - grid.nodes()).max() <= 1e-2


def test_restore_repins_shifted_line():
    case = get_case("p1")
    grid = Grid(1.0, 100)
    res = sv.restore_feasibility(
        case.problem, _line(grid, offset=0.1), sv.SolverConfig(grid_N=100)
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


def test_nonconvergence_reported_not_raised():
    case = get_case("p2")
    r = sv.solve(
        case.problem,
        sv.SolverConfig(grid_N=60, outer_iters=2, feas_tol=1e-12, inner_tol=1e-12),
    )
    assert not r.converged
    assert len(r.history) == 2
    assert r.objective == pb.evaluate_cost(case.problem, r.x)


def test_restore_nonconvergence_flags_bound_unverified():
    case = get_case("p2")
    grid = Grid(1.0, 60)
    cfg = sv.SolverConfig(grid_N=60, outer_iters=1, feas_tol=1e-12,
                          inner_tol=1e-13)
    res = sv.restore_feasibility(case.problem, _line(grid, slope=2.0), cfg)
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
