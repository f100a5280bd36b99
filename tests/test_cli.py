import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bolzakit.cli as cli
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


@pytest.mark.parametrize("field, value", [
    ("omega1", {"type": "reals", "dim": "one"}),
    ("omega1", {"type": "reals", "dim": 1.7}),
    ("omega1", {"type": "box", "lower": 1.0, "upper": [2.0]}),
    ("omega1", {"type": "ball", "center": [0.0], "radius": "big"}),
    ("omega1", {"type": "polyhedron", "A": [[1.0], [1.0, 2.0]], "b": [1.0, 1.0]}),
    ("omega1", {"type": "polyhedron", "A": [["x"]], "b": [1.0]}),
    ("omega2", {"type": "product", "factors": 3}),
    ("n", True),
], ids=["dim-string", "dim-fraction", "box-scalar-bound", "ball-string-radius",
        "polyhedron-ragged", "polyhedron-string-entry", "product-scalar-factors",
        "n-boolean"])
def test_solve_malformed_set_or_dimension_exits_two(workdir, capsys, field, value):
    payload = jsonio.problem_to_json(get_case("p1").problem)
    payload[field] = value
    (workdir / "bad.json").write_text(json.dumps(payload), encoding="utf-8")
    assert main(["solve", "bad.json"]) == 2
    assert capsys.readouterr().err.startswith("error: bad.json: ")
    assert not os.path.exists("bad.trajectory.json")


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


def test_solve_projection_failure_exits_three(workdir, monkeypatch, capsys):
    from bolzakit import convex as cx

    wedge = {"type": "polyhedron", "A": [[-0.1, 1.0], [-0.1, -1.0]], "b": [0.0, 0.0]}
    problem = {
        "version": 1, "n": 2, "T": 1.0, "terminal_cost": "0",
        "running_cost": "((v1+1)^2+v2^2)/2", "drift": ["0", "0"],
        "omega1": wedge,
        "omega2": {"type": "product", "factors": [
            {"type": "singleton", "point": [0.0, 0.0]},
            {"type": "reals", "dim": 2},
        ]},
    }
    (workdir / "wedge.json").write_text(json.dumps(problem), encoding="utf-8")
    snapshots = []
    real = cx._project_polyhedron

    def failing(S, Y, **kwargs):
        if kwargs.get("prove_empty"):  # let the load-time check pass
            return real(S, Y, **kwargs)
        snapshots.append(Y.shape)
        raise cx.ProjectionError("forced failure", 1.0)

    monkeypatch.setattr(cx, "_project_polyhedron", failing)
    assert main(["solve", "wedge.json", "--grid", "20"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: solver failed: projection failed: forced failure")
    assert snapshots == [(20, 2)]
    assert not os.path.exists("wedge.trajectory.json")


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


@pytest.mark.parametrize("version", [True, 1.0], ids=["boolean", "float"])
def test_solve_inexact_version_exits_two(workdir, version):
    payload = jsonio.problem_to_json(get_case("p1").problem)
    payload["version"] = version
    (workdir / "bad.json").write_text(json.dumps(payload), encoding="utf-8")
    assert main(["solve", "bad.json"]) == 2


@pytest.mark.parametrize("kind", ["trajectory", "mu", "multipliers"])
def test_verify_boolean_n_exits_two(workdir, kind):
    # n = true used to pass as 1 (True == 1) on one-column rows
    _write_case(workdir / "p1.json", "p1")
    grid = Grid(1.0, 40)
    mu = CellPath(grid, np.zeros((40, 1)))
    payloads = {
        "trajectory": jsonio.trajectory_to_json(
            Trajectory(grid, grid.nodes()[:, None])),
        "mu": jsonio.cellpath_to_json(mu),
        "multipliers": jsonio.multipliers_to_json(mu, [0.0], [0.0]),
    }
    payloads[kind]["n"] = True
    for name, payload in payloads.items():
        jsonio.atomic_write_json(f"{name}.json", payload)
    args = {
        "trajectory": [],
        "mu": ["--mu", "mu.json", "--s1", "0", "--s2", "0"],
        "multipliers": ["--multipliers", "multipliers.json"],
    }[kind]
    assert main(["verify", "p1.json", "trajectory.json", *args]) == 2


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


@pytest.mark.parametrize("out", ["missing/line.json", "sub"])
def test_probe_cq_unwritable_out_exits_two_before_restoring(workdir, capsys,
                                                            monkeypatch, out):
    def never(*args, **kwargs):
        raise AssertionError("a restoration ran although --out is unwritable")

    monkeypatch.setattr(cli.cqmod, "restore_feasibility", never)
    _write_case(workdir / "p2.json", "p2")
    _write_line(workdir / "line.json", N=50)
    (workdir / "sub").mkdir()
    code = main(["probe-cq", "p2.json", "line.json", "--samples", "5",
                 "--grid", "50", "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and out in err
    assert ".part" not in err
    assert sorted(os.listdir(workdir)) == ["line.json", "p2.json", "sub"]


def test_check_derivatives_command(workdir, capsys):
    _write_case(workdir / "p1.json", "p1")
    _write_line(workdir / "line.json", N=60)
    code = main(["check-derivatives", "p1.json", "line.json",
                 "--directions", "20", "--eps", "1e-5"])
    assert code == 0
    payload = jsonio.load_json("line.derivcheck.json")
    assert payload["cost_derivative_max_rel_err"] <= 1e-6


def test_check_derivatives_domain_error_exits_two(workdir, capsys):
    problem = {
        "version": 1, "n": 1, "T": 1.0, "terminal_cost": "0",
        "running_cost": "log(x1)+v1^2/2", "drift": ["0"],
        "omega1": {"type": "reals", "dim": 1},
        "omega2": {"type": "reals", "dim": 2},
    }
    (workdir / "log.json").write_text(json.dumps(problem), encoding="utf-8")
    _write_line(workdir / "line.json", N=20, slope=0.0, offset=-1.0)  # x = -1
    code = main(["check-derivatives", "log.json", "line.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: derivative check failed to run: ")
    assert "log" in err
    assert not os.path.exists("line.derivcheck.json")


@pytest.mark.parametrize("argv, prefix", [
    (["verify", "exp.json", "line.json"], "error: verification failed to run: "),
    (["verify", "exp.json", "line.json", "--kappa", "10"],
     "error: verification failed to run: "),
    (["check-derivatives", "exp.json", "line.json"],
     "error: derivative check failed to run: "),
], ids=["verify", "verify-kappa", "check-derivatives"])
def test_drift_overflowing_at_the_candidate_exits_two(workdir, capsys, argv,
                                                      prefix):
    # exp(800) overflows: the velocity part is no number to measure, which is
    # bad input (exit 2), not a failed certificate (exit 1)
    _write_overflowing_drift(workdir)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert "non-finite at cell 0 (t = 0)" in err
    assert not os.path.exists("line.certificate.json")
    assert not os.path.exists("line.derivcheck.json")


def _write_overflowing_drift(workdir):
    """exp.json with drift exp(x1), and line.json with every node at 800,
    where that drift overflows."""
    problem = {
        "version": 1, "n": 1, "T": 1.0, "terminal_cost": "0",
        "running_cost": "v1^2/2", "drift": ["exp(x1)"],
        "omega1": {"type": "reals", "dim": 1},
        "omega2": {"type": "reals", "dim": 2},
    }
    (workdir / "exp.json").write_text(json.dumps(problem), encoding="utf-8")
    _write_line(workdir / "line.json", N=4, slope=0.0, offset=800.0)


def _run_program(*argv):
    """Run a Python command line on this checkout's sources in a new
    process, as a user would."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))


@pytest.mark.parametrize("command", ["verify", "check-derivatives", "probe-cq"])
def test_overflowing_drift_writes_only_the_error_line(workdir, command):
    # numpy's overflow warning must not leak to stderr ahead of the message
    _write_overflowing_drift(workdir)
    done = _run_program("-c", "from bolzakit.cli import entry; entry()",
                        command, "exp.json", "line.json")
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr


def test_module_runs_as_a_program(workdir):
    # python -m bolzakit.cli runs the command: exit 0, verify's PASS code,
    # without running anything would be a false pass
    _write_overflowing_drift(workdir)
    done = _run_program("-m", "bolzakit.cli", "verify", "exp.json", "line.json")
    assert done.returncode == 2, done.stderr
    assert "non-finite at cell 0" in done.stderr


@pytest.mark.parametrize("argv", [
    ["--help"],
    *([command, "--help"] for command in cli._COMMANDS),
    ["frobnicate", "p1.json"],
    ["verify", "p1.json"],
    ["solve", "p1.json", "--grid", "many"],
    [],
], ids=lambda argv: " ".join(argv) or "empty")
def test_parser_for_one_command_matches_the_full_parser(capsys, argv):
    # main builds only the named command's arguments; help, usage errors and
    # exit codes are those of the parser with every command built
    def run(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    full = run(lambda args: cli.build_parser().parse_args(args))
    assert run(main) == full
    assert full[1] or full[2]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        return exc.code


@pytest.mark.parametrize("argv", [
    ["verify", "p2.json", "line.json", "--kappa", "-1"],
    ["verify", "p2.json", "line.json", "--kappa", "0"],
    ["verify", "p2.json", "line.json", "--kappa", "nan"],
    ["verify", "p2.json", "line.json", "--seed", "-1"],
    ["verify", "p2.json", "line.json", "--tol-el", "nan"],
    ["probe-cq", "p2.json", "line.json", "--samples", "-3"],
    ["check-derivatives", "p2.json", "line.json", "--eps", "0"],
    ["check-derivatives", "p2.json", "line.json", "--directions", "0"],
    ["solve", "p2.json", "--grid", "50", "--feas-tol", "nan"],
    ["solve", "p2.json", "--grid", "50", "--rho", "inf"],
    ["solve", "p2.json", "--grid", "50", "--inner-tol", "inf"],
    ["verify", "p2.json", "line.json", "--report", "missing/line.json"],
    ["probe-cq", "p2.json", "line.json", "--samples", "2", "--grid", "50",
     "--out", "missing/line.json"],
    ["solve", "p2.json", "--grid", "50", "--out-dir", "p2.json"],
    ["verify", "p2.json", "line.json", "--s1", "nan", "--s2", "0", "--kappa", "10"],
    ["verify", "p2.json", "line.json", "--s1", "0", "--s2", "inf", "--kappa", "10"],
], ids=["kappa-negative", "kappa-zero", "kappa-nan", "seed-negative",
        "tolerance-nan", "samples-negative", "eps-zero", "directions-zero",
        "feas-tol-nan", "rho-inf", "inner-tol-inf", "report-missing-dir",
        "out-missing-dir", "out-dir-is-a-file", "s1-nan", "s2-inf"])
def test_bad_number_or_unwritable_output_exits_two(workdir, capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("solve ran although its inputs were already known bad")

    monkeypatch.setattr(cli, "solve", never)
    _write_case(workdir / "p2.json", "p2")
    _write_line(workdir / "line.json", N=50)
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    # an unwritable output is reported under the path given, not a temporary
    assert ".part" not in err
    for path in argv:
        if path.startswith("missing/"):
            assert path in err


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



@pytest.mark.parametrize("s1, s2", [([float("nan")], [0.0]),
                                    ([0.0], [float("inf")])],
                         ids=["s1-nan", "s2-inf"])
def test_non_finite_multiplier_file_exits_two(workdir, capsys, s1, s2):
    _write_case(workdir / "p2.json", "p2")
    _write_line(workdir / "line.json", N=50)
    payload = {"T": 1.0, "n": 1, "mu": [[0.0]] * 50, "s1": s1, "s2": s2}
    # json writes NaN and Infinity, and json.load reads them back
    (workdir / "m.json").write_text(json.dumps(payload), encoding="utf-8")
    assert _exit_code(["verify", "p2.json", "line.json", "--multipliers", "m.json",
                       "--kappa", "10"]) == 2
    err = capsys.readouterr().err
    assert "m.json" in err and "finite" in err
    assert not os.path.exists("line.certificate.json")

HUGE = 10 ** 400  # a JSON integer literal beyond the largest double


def _huge_row(path):
    payload = jsonio.trajectory_to_json(_write_line(path, N=20))
    payload["values"][7] = [HUGE]
    path.write_text(json.dumps(payload), encoding="utf-8")


def _huge_problem(path, field, literal=str(HUGE)):
    payload = jsonio.problem_to_json(get_case("p1").problem)
    if field == "T":
        payload["T"] = "LITERAL"
    else:
        payload["omega2"]["point"][1] = "LITERAL"
    path.write_text(json.dumps(payload).replace('"LITERAL"', literal),
                    encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["norms", "huge.json"],
    ["verify", "p1.json", "huge.json"],
    ["solve", "p1.json", "--grid", "20", "--warm-start", "huge.json"],
    ["solve", "huge-T.json"],
    ["solve", "huge-point.json"],
    ["solve", "long-T.json"],
], ids=["norms", "verify", "warm-start", "problem-T", "singleton-point",
        "over-digit-limit"])
def test_huge_integer_literal_exits_two(workdir, capsys, argv):
    # the last literal has more digits than Python 3.11+ parses as an int
    _write_case(workdir / "p1.json", "p1")
    _huge_row(workdir / "huge.json")
    _huge_problem(workdir / "huge-T.json", "T")
    _huge_problem(workdir / "huge-point.json", "point")
    _huge_problem(workdir / "long-T.json", "T", "1" + "0" * 5000)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[-1]}: ")  # the file with the literal


def test_infinite_lipschitz_modulus_exits_two(workdir, capsys):
    payload = jsonio.problem_to_json(get_case("p2").problem)
    payload["lipschitz_ell"] = "inf"
    (workdir / "p2.json").write_text(json.dumps(payload), encoding="utf-8")
    _write_line(workdir / "line.json", N=50)
    assert _exit_code(["verify", "p2.json", "line.json", "--kappa", "10"]) == 2
    err = capsys.readouterr().err
    assert "p2.json" in err and "Lipschitz" in err
    assert not os.path.exists("line.certificate.json")
