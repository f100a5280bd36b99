import json
import os

import numpy as np
import pytest

import bolzakit.jsonio as jsonio
from bolzakit.catalog import get_case
from bolzakit.cli import main
from bolzakit.funspace import CellPath, Grid, Trajectory


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write_case(path, cid):
    case = get_case(cid)
    jsonio.atomic_write_json(str(path), jsonio.problem_to_json(case.problem))
    return case


def _write_line(path, N=100, T=1.0, slope=1.0, offset=0.0):
    grid = Grid(T, N)
    x = Trajectory(grid, (offset + slope * grid.nodes())[:, None])
    jsonio.atomic_write_json(str(path), jsonio.trajectory_to_json(x))
    return x


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_artifacts_and_exits_zero(workdir):
    _write_case(workdir / "p1.json", "p1")
    code = main(["solve", "p1.json", "--grid", "200"])
    assert code == 0
    traj = jsonio.trajectory_from_json(jsonio.load_json("p1.trajectory.json"))
    assert abs(traj.values[-1, 0] - 1.0) <= 1e-6
    mu, s1, s2 = jsonio.multipliers_from_json(jsonio.load_json("p1.multipliers.json"))
    assert mu.grid.N == 200
    with open("p1.history.csv") as handle:
        header = handle.readline().strip()
    assert header == "outer_iter,objective,velocity_defect,endpoint_defect,rho"


def test_solve_objective_matches_analytic_value(workdir, capsys):
    _write_case(workdir / "p1.json", "p1")
    assert main(["solve", "p1.json", "--grid", "200"]) == 0
    out = capsys.readouterr().out
    assert "objective=0.5" in out


def test_solve_malformed_json_exits_two(workdir):
    (workdir / "bad.json").write_text("{not json", encoding="utf-8")
    assert main(["solve", "bad.json"]) == 2


def test_solve_unknown_field_rejected(workdir):
    case = get_case("p1")
    payload = jsonio.problem_to_json(case.problem)
    payload["surprise"] = 1
    (workdir / "odd.json").write_text(json.dumps(payload), encoding="utf-8")
    assert main(["solve", "odd.json"]) == 2


def test_solve_deterministic_outputs(workdir):
    _write_case(workdir / "p2.json", "p2")
    assert main(["solve", "p2.json", "--grid", "120", "--prefix", "a"]) == 0
    assert main(["solve", "p2.json", "--grid", "120", "--prefix", "b"]) == 0
    for suffix in ("trajectory.json", "multipliers.json", "history.csv"):
        with open(f"a.{suffix}", "rb") as fa, open(f"b.{suffix}", "rb") as fb:
            assert fa.read() == fb.read()


def test_solve_nonconvergence_exits_three(workdir):
    _write_case(workdir / "p2.json", "p2")
    code = main(["solve", "p2.json", "--grid", "60", "--outer-iters", "2",
                 "--feas-tol", "1e-12", "--inner-tol", "1e-13"])
    assert code == 3


# ---------------------------------------------------------------------------
# verify


def test_solve_then_verify_round_trip_all_cases(workdir):
    for cid in ("p1", "p2", "p3", "p4"):
        _write_case(workdir / f"{cid}.json", cid)
        assert main(["solve", f"{cid}.json", "--grid", "200"]) == 0
        code = main([
            "verify", f"{cid}.json", f"{cid}.trajectory.json",
            "--multipliers", f"{cid}.multipliers.json",
        ])
        assert code == 0, cid
        report = jsonio.load_json(f"{cid}.trajectory.certificate.json")
        assert report["passed"] is True


def test_verify_corrupted_trajectory_exits_one(workdir):
    _write_case(workdir / "p1.json", "p1")
    grid = Grid(1.0, 100)
    x = Trajectory(grid, (grid.nodes() ** 2)[:, None])
    jsonio.atomic_write_json("quad.json", jsonio.trajectory_to_json(x))
    code = main(["verify", "p1.json", "quad.json"])
    assert code == 1
    report = jsonio.load_json("quad.certificate.json")
    assert report["verdicts"]["el"] == "fail"


def test_verify_grid_mismatch_exits_two(workdir):
    _write_case(workdir / "p1.json", "p1")
    _write_line(workdir / "short.json", N=50)
    case = get_case("p1")
    grid = Grid(1.0, 60)
    mu = CellPath(grid, np.zeros((60, 1)))
    jsonio.atomic_write_json(
        "mult.json", jsonio.multipliers_to_json(mu, [0.0], [0.0])
    )
    assert main(["verify", "p1.json", "short.json", "--multipliers",
                 "mult.json"]) == 2


def test_verify_wrong_horizon_exits_two(workdir):
    _write_case(workdir / "p1.json", "p1")
    _write_line(workdir / "long.json", N=50, T=2.0)
    assert main(["verify", "p1.json", "long.json"]) == 2


def test_verify_report_contains_tagged_lines(workdir, capsys):
    _write_case(workdir / "p2.json", "p2")
    assert main(["solve", "p2.json", "--grid", "100"]) == 0
    main(["verify", "p2.json", "p2.trajectory.json", "--multipliers",
          "p2.multipliers.json"])
    out = capsys.readouterr().out
    for tag in ("[FEAS", "[EL", "[WP", "[TR", "[NC", "[BOUND"):
        assert tag in out


def test_verify_with_separate_mu_and_endpoint_flags(workdir):
    _write_case(workdir / "p2.json", "p2")
    _write_line(workdir / "line.json", N=80)
    grid = Grid(1.0, 80)
    mu = CellPath(grid, np.ones((80, 1)))
    jsonio.atomic_write_json("mu.json", jsonio.cellpath_to_json(mu))
    code = main(["verify", "p2.json", "line.json", "--mu", "mu.json",
                 "--s1", "0.0", "--s2", "0.0"])
    assert code == 0
    assert main(["verify", "p2.json", "line.json", "--mu", "mu.json",
                 "--s1", "1.0,2.0"]) == 2  # wrong dimension
    # the bundle and the separate flags are mutually exclusive
    jsonio.atomic_write_json(
        "mult.json", jsonio.multipliers_to_json(mu, [0.0], [0.0])
    )
    assert main(["verify", "p2.json", "line.json", "--multipliers",
                 "mult.json", "--mu", "mu.json"]) == 2


def test_verify_with_kappa_prints_bound(workdir, capsys):
    _write_case(workdir / "p2.json", "p2")
    assert main(["solve", "p2.json", "--grid", "100"]) == 0
    code = main(["verify", "p2.json", "p2.trajectory.json", "--multipliers",
                 "p2.multipliers.json", "--kappa", "2.0"])
    assert code == 0
    report = jsonio.load_json("p2.trajectory.certificate.json")
    assert report["kappa"] == 2.0
    assert report["bound_satisfied"] is True
    assert report["ell_provenance"] == "estimated"


# ---------------------------------------------------------------------------
# probe-cq / check-derivatives / norms


def test_probe_cq_command(workdir, capsys):
    _write_case(workdir / "p2.json", "p2")
    _write_line(workdir / "line.json", N=50)
    code = main(["probe-cq", "p2.json", "line.json", "--samples", "20",
                 "--delta", "0.1", "--seed", "1", "--grid", "50"])
    assert code == 0
    out = capsys.readouterr().out
    assert "kappa_hat=" in out and "lower bound" in out
    payload = jsonio.load_json("line.cqprobe.json")
    assert payload["kappa_hat"] == pytest.approx(1.0, abs=5e-2)


def test_check_derivatives_command(workdir, capsys):
    _write_case(workdir / "p1.json", "p1")
    _write_line(workdir / "line.json", N=60)
    code = main(["check-derivatives", "p1.json", "line.json",
                 "--directions", "20", "--eps", "1e-5"])
    assert code == 0
    payload = jsonio.load_json("line.derivcheck.json")
    assert payload["cost_derivative_max_rel_err"] <= 1e-6


def test_norms_command_values_and_inequalities(workdir, capsys):
    _write_line(workdir / "line.json", N=80)
    code = main(["norms", "line.json"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ac=1 " in out or "ac=0.99999" in out or "ac=1.0" in out
    payload = jsonio.load_json("line.norms.json")
    assert payload["ac_norm"] == pytest.approx(1.0)
    assert payload["one_one_norm"] == pytest.approx(1.5)
    assert payload["sup_norm"] == pytest.approx(1.0)
    assert payload["equivalence"]["lower_holds"] is True
    assert payload["equivalence"]["upper_holds"] is True
    assert payload["sup_bound"]["holds"] is True


def test_catalog_listing_and_export(workdir, capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for cid in ("p1", "p2", "p3", "p4"):
        assert cid in out
    assert main(["catalog", "p3"]) == 0
    P = jsonio.problem_from_json(jsonio.load_json("p3.json"))
    assert P.n == 1


def test_set_json_round_trip():
    case = get_case("p2")
    payload = jsonio.set_to_json(case.problem.omega1)
    assert payload["lower"] == ["-inf"]
    S = jsonio.set_from_json(payload)
    assert S.lower[0] == -np.inf and S.upper[0] == 1.0
