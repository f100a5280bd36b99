"""bolzakit benchmark: solve -> verify (-> probe-cq) through the CLI.

Usage (from the repository root):

    python3 bench/run.py --workload smooth --seed 1 --seconds 40 --trace 0

Each workload is a closed loop in one process: a *pass* runs, for every
instance the seed generates, ``bolzakit.cli.main`` for ``solve``, then
``verify`` on the solver's own trajectory and multipliers with
``--kappa`` (so the norm bound runs), then ``probe-cq`` where the
instance asks for it.  Solve and verify are deterministic and repeat as
``workloads.REPEATS`` says.  Passes repeat until the next one would overrun
``--seconds``; timings are medians over passes.  Every command's output
is checked (see ``check_*`` below).

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the first traced pass (counts are exact and repeat
for a seed) plus the tracing overhead; the spans of that pass are
written to ``.bench_work/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy loads: one thread per process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace

_START = time.perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("smooth", "wedge", "probe")
SETUP_REPEATS = 3
WARMUP_GRID = 20
FEAS_TOL = 1e-8  # passed to solve as --feas-tol and checked on its output
# closed-form answers hold to the solver's own tolerances
CLOSED_FORM_TOL = 1e-6
SET_TYPES = ("Reals", "Box", "Ball", "Singleton", "Polyhedron", "Product")
# verdicts that must pass on converged solver output; EL and WP failures
# are the known certificate defect and are reported in cert_fail_frac
REQUIRED_VERDICTS = ("feasibility", "transversality", "mu_membership")
OUTPUTS = {"solve": ("trajectory", "multipliers", "history"),
           "verify": ("report",), "probe-cq": ("probe",)}


@dataclass
class PassResult:
    wall: dict = field(default_factory=lambda: {"solve": 0.0, "verify": 0.0,
                                                "probe-cq": 0.0})
    attempted: int = 0
    failed: int = 0
    certificates: int = 0
    cert_failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def command_s(self) -> float:
        return sum(self.wall.values())


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "bolzakit", "__init__.py")):
        raise SystemExit(f"bench: no bolzakit sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    global cli, jsonio, pb, workloads, tracer_mod
    from bolzakit import cli, jsonio
    from bolzakit import problem as pb

    import tracer as tracer_mod
    import workloads


def _write_inputs(instances, directory: str) -> dict:
    paths = {}
    for inst in instances:
        path = os.path.join(directory, f"{inst.name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(inst.problem, handle)
        paths[inst.name] = path
    return paths


def _run_cli(argv, tracer):
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.installed(), tracer.command(argv[0]):
                code = cli.main(argv)
    return code, buf.getvalue(), time.perf_counter() - start


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems found (empty = correct)


def check_solve(inst, problem_path, out, code, stdout) -> list[str]:
    if code != 0 or "converged=yes" not in stdout:
        return [f"solve exit {code}, not converged: {stdout.strip()[-200:]}"]
    errors = []
    P = jsonio.problem_from_json(jsonio.load_json(problem_path))
    x = jsonio.trajectory_from_json(jsonio.load_json(out["trajectory"]))
    vdef, edef = pb.feasibility_residual(P, x)
    if not vdef + edef <= FEAS_TOL:
        errors.append(f"recomputed defects {vdef:.3e}+{edef:.3e} > {FEAS_TOL}")
    J = pb.evaluate_cost(P, x)
    printed = float(stdout.split("objective=")[1].split()[0])
    # the CLI prints %.9g: agreement to that precision
    if not abs(J - printed) <= 1e-8 * abs(J) + 1e-12:
        errors.append(f"evaluate_cost {J!r} != reported objective {printed!r}")
    with open(out["history"], encoding="utf-8") as handle:
        last = list(csv.DictReader(handle))[-1]
    if not abs(J - float(last["objective"])) <= 1e-12 * (1.0 + abs(J)):
        errors.append(f"evaluate_cost {J!r} != history objective {last['objective']}")
    if "J" in inst.expect:
        if not abs(J - inst.expect["J"]) <= CLOSED_FORM_TOL:
            errors.append(f"J = {J!r}, closed form {inst.expect['J']!r}")
        dev = max(
            abs(v - w) for row in x.velocities() for v, w in zip(row, inst.expect["velocity"])
        )
        start = max(abs(v) for v in x.values[0])
        if not (dev <= CLOSED_FORM_TOL and start <= CLOSED_FORM_TOL):
            errors.append(f"velocity off the closed form by {dev:.3e}")
    return errors


def check_verify(out, code) -> tuple[list[str], bool]:
    """Problems found, and whether the certificate's verdict is FAIL."""
    with open(out["report"], encoding="utf-8") as handle:
        report = json.load(handle)
    errors = []
    if code != (0 if report["passed"] else 1):
        errors.append(f"verify exit {code} disagrees with verdict {report['passed']}")
    verdicts = report["verdicts"]
    for name in REQUIRED_VERDICTS:
        if verdicts[name] != "pass":
            errors.append(f"verify {name} = {verdicts[name]}")
    if verdicts["bound"] == "skipped":
        errors.append("verify skipped the norm bound although --kappa was given")
    return errors, not report["passed"]


def check_probe(out, code) -> list[str]:
    if code != 0:
        return [f"probe-cq exit {code}"]
    with open(out["probe"], encoding="utf-8") as handle:
        result = json.load(handle)
    errors = []
    if result["dropped_nonconverged"]:
        errors.append(f"{result['dropped_nonconverged']} restorations dropped")
    kappa = result["kappa_hat"]
    if kappa is None or not math.isfinite(kappa):
        errors.append(f"kappa_hat = {kappa}")
    return errors


# ---------------------------------------------------------------------------


def run_session(inst, problem_path, seed, repeats, outdir, result: PassResult,
                tracer=None):
    """solve -> verify (-> probe-cq) on one instance; ``repeats`` gives the
    calls of solve and verify."""
    out = {
        "trajectory": os.path.join(outdir, f"{inst.name}.trajectory.json"),
        "multipliers": os.path.join(outdir, f"{inst.name}.multipliers.json"),
        "history": os.path.join(outdir, f"{inst.name}.history.csv"),
        "report": os.path.join(outdir, f"{inst.name}.certificate.json"),
        "probe": os.path.join(outdir, f"{inst.name}.cqprobe.json"),
    }
    commands = [("solve", ["solve", problem_path, "--grid", str(inst.grid),
                           "--feas-tol", repr(FEAS_TOL), "--out-dir", outdir,
                           "--prefix", inst.name])] * repeats["solve"]
    commands += [("verify", ["verify", problem_path, out["trajectory"],
                             "--multipliers", out["multipliers"],
                             "--kappa", repr(workloads.VERIFY_KAPPA),
                             "--seed", str(seed), "--report", out["report"]])
                 ] * repeats["verify"]
    if inst.probe_samples:
        commands.append(("probe-cq", [
            "probe-cq", problem_path, out["trajectory"],
            "--samples", str(inst.probe_samples),
            "--delta", repr(workloads.PROBE_DELTA), "--seed", str(seed),
            "--grid", str(inst.grid), "--feas-tol", repr(FEAS_TOL),
            "--out", out["probe"],
        ]))
    for i, (name, argv) in enumerate(commands):
        result.attempted += 1
        for key in OUTPUTS[name]:  # the checks must read this call's output
            with contextlib.suppress(FileNotFoundError):
                os.remove(out[key])
        try:
            code, stdout, wall = _run_cli(argv, tracer)
            result.wall[name] += wall
            if name == "solve":
                errors = check_solve(inst, problem_path, out, code, stdout)
            elif name == "verify":
                errors, cert_failed = check_verify(out, code)
                result.certificates += 1
                result.cert_failed += cert_failed
            else:
                errors = check_probe(out, code)
        except Exception as err:  # a crash is a failed operation, not a stop
            errors = [f"{name} raised {type(err).__name__}: {err}"]
        if errors:
            result.failed += 1
            result.errors.extend(f"{inst.name} {e}" for e in errors)
            if name == "solve":
                # nothing to verify or probe: the rest of the session fails too
                rest = len(commands) - i - 1
                result.attempted += rest
                result.failed += rest
                return


def run_pass(instances, paths, seed, repeats, outdir,
             tracer=None) -> tuple[PassResult, float]:
    result = PassResult()
    start = time.perf_counter()
    for inst in instances:
        run_session(inst, paths[inst.name], seed, repeats, outdir, result, tracer)
    return result, time.perf_counter() - start


def setup(workload: str, seed: int, workdir: str):
    """Generate the inputs and warm up once; returns (instances, paths)."""
    instances = workloads.generate(workload, seed)
    paths = _write_inputs(instances, workdir)
    warm = replace(instances[-1], name="warmup", grid=WARMUP_GRID,
                   probe_samples=min(instances[-1].probe_samples, 1), expect={})
    warm_paths = _write_inputs([warm], workdir)
    run_pass([warm], warm_paths, seed, {"solve": 1, "verify": 1}, workdir)
    return instances, paths


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setup_s) -> dict:
    return {
        "setup_s": _metric(setup_s, "s"),
        "solve_s": _metric(statistics.median([p.wall["solve"] for p, _ in passes]), "s"),
        "verify_s": _metric(statistics.median([p.wall["verify"] for p, _ in passes]), "s"),
        "pass_s": _metric(statistics.median([w for _, w in passes]), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer(tr, untraced, traced) -> tuple[dict, dict]:
    """The per-layer metrics, and workload-specific times printed beside
    them.  Times that are structurally 0 on some workload (one set type,
    the CQ probe) go to the second dict: every metric must be reported by
    every workload, and a time that reads 0 on every run is no measurement.
    """
    m = {}

    def count(name, value):
        m[name] = _metric(value, "count")

    def seconds(name, value):
        m[name] = _metric(value, "s")

    count("expr.eval_calls", tr.calls["expr.eval"])
    seconds("expr.eval_s", tr.self_s["expr.eval"])
    count("problem.theta_calls", tr.calls["problem.theta"])
    seconds("problem.theta_s", tr.self_s["problem.theta"])
    count("problem.drift_calls", tr.calls["problem.drift"])
    seconds("problem.drift_s", tr.self_s["problem.drift"])
    count("problem.feas_calls", tr.calls["problem.feas"])
    seconds("problem.lipschitz_s", tr.total_s["problem.lipschitz"])
    for kind in SET_TYPES:
        count(f"convex.project_calls.{kind}", tr.calls[f"convex.project.{kind}"])
        count(f"convex.project_rows.{kind}", tr.counts[f"convex.project_rows.{kind}"])
    seconds("convex.project_s", sum(tr.self_s[f"convex.project.{kind}"]
                                    for kind in SET_TYPES))
    seconds("convex.distance_s", tr.self_s["convex.distance"])
    seconds("convex.support_s", tr.total_s["convex.support"])
    seconds("convex.normal_cone_s", tr.total_s["convex.normal_cone"])
    count("solver.outer_iters", tr.counts["solver.outer_iters"])
    absent = set(tr.absent)
    if "_AlmState.inner_minimize" not in absent:
        count("solver.inner_calls", tr.calls["solver.inner_minimize"])
    if "_AlmState.aug_value_and_grad" not in absent:
        grads = tr.calls["solver.aug_value_and_grad"]
        count("solver.grad_evals", grads)
        for N in workloads.SMOOTH_GRIDS:
            count(f"solver.grad_evals.N{N}", tr.counts[f"solver.grad_evals.N{N}"])
        if "_AlmState.aug_value" not in absent:
            values = tr.calls["solver.aug_value"]
            count("solver.value_evals", values)
            m["solver.value_per_grad"] = _metric(values / max(grads, 1), "ratio")
    seconds("solver.self_s", sum(v for k, v in tr.self_s.items()
                                 if k.startswith("solver.")))
    for check in ("adjoint", "el", "wp", "tr", "nc", "ie", "certify"):
        seconds(f"optimality.{check}_s", tr.total_s[f"optimality.{check}"])
    for name in ("samples", "admitted", "excluded", "dropped"):
        count(f"cq.{name}", tr.counts[f"cq.{name}"])
    count("cq.restore_calls", tr.calls["solver.restore"])
    seconds("jsonio.read_s", tr.self_s["jsonio.read"])
    seconds("jsonio.write_s", tr.self_s["jsonio.write"])
    count("jsonio.bytes_written", tr.counts["jsonio.bytes_written"])
    base = statistics.median(untraced)
    m["trace.overhead_frac"] = _metric(
        (statistics.median(traced) - base) / base, "ratio"
    )

    detail = {f"convex.project_s.{kind}": tr.self_s[f"convex.project.{kind}"]
              for kind in SET_TYPES}
    detail["cq.restore_s"] = tr.total_s["solver.restore"]
    detail["cq.probe_s"] = tr.total_s["cq.probe"]
    return m, {k: v for k, v in detail.items() if v}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import_s = time.perf_counter() - _START
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            instances, paths = setup(args.workload, args.seed, workdir)
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)

        repeats = workloads.REPEATS[args.workload]
        passes, traced_passes, first_trace = [], [], None
        begin = time.perf_counter()
        while True:
            passes.append(run_pass(instances, paths, args.seed, repeats, workdir))
            if args.trace:
                tr = tracer_mod.Tracer()
                traced_passes.append(
                    run_pass(instances, paths, args.seed, repeats, workdir, tr)
                )
                first_trace = first_trace or tr
            elapsed = time.perf_counter() - begin
            rounds = len(passes)
            if elapsed + elapsed / rounds > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = [p for p, _ in passes + traced_passes]
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    certificates = sum(p.certificates for p in everything)
    cert_failed = sum(p.cert_failed for p in everything)
    for err in sorted({e for p in everything for e in p.errors}):
        print(f"FAILED {err}")

    if args.trace:
        metrics, detail = per_layer(
            first_trace,
            [p.command_s for p, _ in passes],
            [p.command_s for p, _ in traced_passes],
        )
        path = os.path.join(WORK, f"trace-{args.workload}.jsonl")
        first_trace.write_jsonl(path)
        if first_trace.absent:
            print(f"absent from bolzakit, not traced: {', '.join(first_trace.absent)}")
        print(f"spans: {len(first_trace.spans)} -> {path}")
        for name, value in detail.items():
            print(f"{name}  {value:.6g} s")
    else:
        metrics = end_to_end(passes, setup_s)
        probe = [p.wall["probe-cq"] for p, _ in passes]
        if any(probe):
            print(f"probe_s  {statistics.median(probe):.4f} s (median)")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(traced_passes)} traced; untraced pass walls "
          + " ".join(f"{w:.3f}" for _, w in passes) + " s")
    print(f"failed_frac  {failed / attempted:.4f}  ({failed}/{attempted} operations)")
    print(f"cert_fail_frac  {cert_failed / max(certificates, 1):.4f}  "
          f"({cert_failed}/{certificates} certificates with verdict FAIL)")
    for name, m in metrics.items():
        print(f"{name}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
