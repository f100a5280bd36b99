"""Self-test of the benchmark harness.

Run from the repository root (takes about three minutes):

    python3 bench/selftest.py

It checks that
  * the tracer rebinds every name that bolzakit modules import by value,
    and restores the originals afterwards;
  * on each workload, every public boundary the workload must reach
    records at least one span;
  * exact counts repeat between two traced runs of one seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEED = 7

# names bound by `from .x import y`: unpatched, their calls go uncounted
REBOUND = {
    "solver": ("project", "project_normal_cone"),
    "problem": ("distance",),
    "optimality": ("project", "support", "distance", "normal_cone_residual"),
    "cq": ("restore_feasibility",),
    "cli": ("solve", "certify", "reconstruct_adjoint"),
}

COMMON = {
    "cli.solve", "cli.verify", "expr.eval", "problem.theta", "problem.drift",
    "problem.feas", "solver.solve", "optimality.adjoint", "optimality.el",
    "optimality.wp", "optimality.tr", "optimality.nc", "optimality.certify",
    "convex.distance", "convex.normal_cone", "convex.project_normal_cone",
    "convex.project.Product", "jsonio.read", "jsonio.write",
}
REQUIRED = {
    "smooth": COMMON | {"problem.lipschitz", "convex.project.Box",
                        "convex.project.Reals", "optimality.ie"},
    "wedge": COMMON | {"convex.project.Polyhedron", "convex.support"},
    "probe": COMMON | {"cli.probe-cq", "cq.probe", "solver.restore",
                       "convex.project.Ball", "convex.support"},
}
# private solver hooks: required only while the solver still has them
HOOKS = {"solver.aug_value", "solver.aug_value_and_grad",
         "solver.inner_minimize", "solver.update_duals"}


def check_rebinding() -> list[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    import importlib

    import tracer

    mods = {m: importlib.import_module(f"bolzakit.{m}") for m in REBOUND}
    before = {(m, a): getattr(mods[m], a) for m, attrs in REBOUND.items() for a in attrs}
    errors = []
    tr = tracer.Tracer()
    with tr.installed():
        for (m, a), original in before.items():
            if getattr(getattr(mods[m], a), "__wrapped__", None) is not original:
                errors.append(f"bolzakit.{m}.{a} is not rebound while tracing")
    for (m, a), original in before.items():
        if getattr(mods[m], a) is not original:
            errors.append(f"bolzakit.{m}.{a} is not restored after tracing")
    return errors


def traced_run(workload: str) -> tuple[dict, set]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: output checks failed\n{proc.stdout}")
    path = os.path.join(ROOT, ".bench_work", f"trace-{workload}.jsonl")
    with open(path, encoding="utf-8") as handle:
        names = {json.loads(line)["name"] for line in handle}
    return result["metrics"], names


def main() -> int:
    errors = check_rebinding()
    for workload, required in REQUIRED.items():
        first, _ = traced_run(workload)
        second, names = traced_run(workload)
        hooks = HOOKS if "solver.grad_evals" in second else set()
        for name in sorted((required | hooks) - names):
            errors.append(f"{workload}: no span at {name}")
        for key, metric in sorted(second.items()):
            if metric["unit"] == "count" and metric["value"] != first[key]["value"]:
                errors.append(f"{workload}: {key} = {first[key]['value']} then "
                              f"{metric['value']}")
        print(f"{workload}: {len(names)} span names, "
              f"{sum(m['unit'] == 'count' for m in second.values())} counts compared")
    for err in errors:
        print(f"FAIL {err}")
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
