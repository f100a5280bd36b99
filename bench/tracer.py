"""Outside-in tracer: spans around bolzakit's public functions.

The tracer wraps functions from the benchmark's side and leaves ``src/``
untouched.  ``install`` replaces each traced function in its defining
module *and* every other bolzakit module that imported it by value
(``from .convex import project`` binds its own name, so patching
``convex.project`` alone would miss the solver's calls); ``uninstall``
puts the originals back.

A span is (id, parent id, command id, name, start, end).  Spans stay in
memory; ``write_jsonl`` writes them out.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function, span name); a name ending in "." gets the type of the
# first argument appended, so projections are keyed by set type
FUNCTIONS = [
    ("expr", "eval_expr", "expr.eval"),
    ("problem", "feasibility_residual", "problem.feas"),
    ("problem", "estimate_lipschitz", "problem.lipschitz"),
    ("convex", "project", "convex.project."),
    ("convex", "distance", "convex.distance"),
    ("convex", "support", "convex.support"),
    ("convex", "normal_cone_residual", "convex.normal_cone"),
    ("convex", "project_normal_cone", "convex.project_normal_cone"),
    ("solver", "solve", "solver.solve"),
    ("solver", "restore_feasibility", "solver.restore"),
    ("optimality", "reconstruct_adjoint", "optimality.adjoint"),
    ("optimality", "el_residual", "optimality.el"),
    ("optimality", "weierstrass_gap", "optimality.wp"),
    ("optimality", "transversality_residual", "optimality.tr"),
    ("optimality", "mu_membership", "optimality.nc"),
    ("optimality", "integrated_endpoint_residual", "optimality.ie"),
    ("optimality", "certify", "optimality.certify"),
    ("cq", "probe_kappa", "cq.probe"),
    ("jsonio", "load_json", "jsonio.read"),
    ("jsonio", "atomic_write_json", "jsonio.write"),
    ("jsonio", "atomic_write_text", "jsonio.write"),
]

# (module, class, method, span name)
METHODS = [
    ("problem", "ProblemSpec", "theta_cells", "problem.theta"),
    ("problem", "ProblemSpec", "theta_grad_cells", "problem.theta"),
    ("problem", "ProblemSpec", "g_cells", "problem.drift"),
    ("problem", "ProblemSpec", "g_jacobian_cells", "problem.drift"),
    # private solver methods that carry the inner-loop counts; they are
    # expected to be renamed or merged
    ("solver", "_AlmState", "aug_value", "solver.aug_value"),
    ("solver", "_AlmState", "aug_value_and_grad", "solver.aug_value_and_grad"),
    ("solver", "_AlmState", "inner_minimize", "solver.inner_minimize"),
    ("solver", "_AlmState", "update_duals", "solver.update_duals"),
]

PACKAGE = "bolzakit"


def _rows(y) -> int:
    shape = getattr(y, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._command = 0
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list):
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, name, start, child = frame
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.spans.append((span_id, parent, self._command, name, start, end))

    @contextmanager
    def command(self, name: str):
        """Root span of one CLI command; its spans share the command id."""
        self._command += 1
        frame = self._open(f"cli.{name}")
        try:
            yield
        finally:
            self._close(frame)

    # -- counts at boundaries ------------------------------------------------

    def _note(self, name: str, args, result):
        if name.startswith("convex.project."):
            self.counts[f"convex.project_rows.{name[15:]}"] += _rows(args[1])
        elif name == "solver.aug_value_and_grad":
            self.counts[f"solver.grad_evals.N{args[0].grid.N}"] += 1
        elif name == "solver.solve":
            self.counts["solver.outer_iters"] += len(result.history)
        elif name == "cq.probe":
            self.counts["cq.samples"] += result.samples
            self.counts["cq.admitted"] += result.admitted
            self.counts["cq.excluded"] += result.excluded_feasible
            self.counts["cq.dropped"] += result.dropped_nonconverged
        elif name == "jsonio.write" and len(args) > 1 and isinstance(args[1], str):
            self.counts["jsonio.bytes_written"] += len(args[1].encode("utf-8"))

    def _wrap(self, fn, name: str):
        keyed = name.endswith(".")

        def traced(*args, **kwargs):
            span = name + type(args[0]).__name__ if keyed else name
            frame = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            self._note(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap every traced function and rebind it in all importers.

        A function or method that no longer exists is recorded in
        ``absent`` instead of failing the run.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        for mod_name, fn_name, span in FUNCTIONS:
            original = getattr(modules[f"{PACKAGE}.{mod_name}"], fn_name, None)
            if original is None:
                self._absent(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(original, span)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(modules[f"{PACKAGE}.{mod_name}"], cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                self._absent(f"{cls_name}.{meth}")
                continue
            self._patch(cls, meth, original, self._wrap(original, span))

    def _absent(self, name: str):
        if name not in self.absent:
            self.absent.append(name)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, command, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "command": command,
                    "name": name, "start": start, "end": end,
                }) + "\n")
