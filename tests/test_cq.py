import numpy as np
import pytest

import bolzakit.cq as cq
import bolzakit.problem as pb
import bolzakit.solver as sv
from bolzakit import expr as ex
from bolzakit.catalog import get_case
from bolzakit.convex import Reals
from bolzakit.funspace import Grid, Trajectory


def _line(grid, slope=1.0):
    return Trajectory(grid, (slope * grid.nodes())[:, None])


def _cfg(N=50):
    return sv.SolverConfig(grid_N=N, outer_iters=40)


def test_unconstrained_problem_has_no_active_samples():
    P = pb.ProblemSpec(
        n=1,
        T=1.0,
        phi=ex.parse("0", 1, ex.PROFILE_TERMINAL),
        theta=ex.parse("v1^2/2", 1, ex.PROFILE_RUNNING),
        g=[ex.parse("0", 1, ex.PROFILE_DRIFT)],
        omega1=Reals(1),
        omega2=Reals(2),
    )
    grid = Grid(1.0, 30)
    res = cq.probe_kappa(P, _line(grid), samples=20, delta=0.1, seed=3, cfg=_cfg(30))
    assert res.kappa_hat is None
    assert res.caveat == "no active samples"
    assert res.excluded_feasible == 20


def test_capped_speed_probe_is_finite_and_near_one():
    # restoration on this instance is a pointwise clamp, so observed
    # ratios sit at 1 up to solver tolerance
    case = get_case("p2")
    grid = Grid(1.0, 50)
    res = cq.probe_kappa(
        case.problem, _line(grid), samples=40, delta=0.1, seed=1, cfg=_cfg()
    )
    assert res.kappa_hat is not None
    assert res.kappa_hat == pytest.approx(1.0, abs=5e-2)
    assert res.admitted > 0
    assert "lower bound" in res.caveat


def test_probe_deterministic_under_seed():
    case = get_case("p2")
    grid = Grid(1.0, 40)
    a = cq.probe_kappa(case.problem, _line(grid), samples=15, delta=0.1, seed=9,
                       cfg=_cfg(40))
    b = cq.probe_kappa(case.problem, _line(grid), samples=15, delta=0.1, seed=9,
                       cfg=_cfg(40))
    assert a.kappa_hat == b.kappa_hat
    assert [r.ratio for r in a.records] == [r.ratio for r in b.records]


def test_doubling_delta_does_not_shrink_kappa_beyond_noise():
    case = get_case("p2")
    grid = Grid(1.0, 40)
    small = cq.probe_kappa(case.problem, _line(grid), samples=25, delta=0.1,
                           seed=11, cfg=_cfg(40))
    large = cq.probe_kappa(case.problem, _line(grid), samples=25, delta=0.2,
                           seed=11, cfg=_cfg(40))
    assert large.kappa_hat >= small.kappa_hat - 1e-3


def test_probe_requires_feasible_anchor():
    case = get_case("p2")
    grid = Grid(1.0, 30)
    with pytest.raises(ValueError, match="infeasible"):
        cq.probe_kappa(case.problem, _line(grid, slope=2.0), samples=5,
                       delta=0.1, seed=0, cfg=_cfg(30))


def test_probe_records_expose_ratio_components():
    case = get_case("p2")
    grid = Grid(1.0, 30)
    res = cq.probe_kappa(case.problem, _line(grid), samples=10, delta=0.1,
                         seed=4, cfg=_cfg(30))
    for record in res.records:
        if record.ratio is not None:
            assert record.ratio == pytest.approx(
                record.lhs_upper_bound / record.rhs_defect
            )


def test_probe_with_more_copies_than_one_alm_holds(monkeypatch):
    # a working set of 3 copies splits the restorations into several ALMs;
    # every record is the one of the single ALM, in sample order
    case = get_case("p2")
    grid = Grid(1.0, 40)
    whole = cq.probe_kappa(case.problem, _line(grid), samples=10, delta=0.1,
                           seed=5, cfg=_cfg(40))
    restored = whole.admitted + whole.dropped_nonconverged
    assert restored > 3
    runs = []
    original = sv._run_alm

    def counted(*args):
        runs.append(len(args[-1]))
        return original(*args)

    monkeypatch.setattr(sv, "_run_alm", counted)
    monkeypatch.setattr(sv, "_RESTORE_NODES", 3 * (grid.N + 1) + 2)
    split = cq.probe_kappa(case.problem, _line(grid), samples=10, delta=0.1,
                           seed=5, cfg=_cfg(40))
    assert runs == [3] * (restored // 3) + [restored % 3] * (restored % 3 > 0)
    assert split.dropped_nonconverged == whole.dropped_nonconverged
    assert len(split.records) == len(whole.records)
    for a, b in zip(split.records, whole.records):
        assert a.rhs_defect == b.rhs_defect
        assert a.ratio == pytest.approx(b.ratio, rel=1e-9)
    assert split.kappa_hat == pytest.approx(whole.kappa_hat, rel=1e-9)
