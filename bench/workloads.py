"""Seeded problem generator for the benchmark workloads.

The workload seed picks instance parameters (target velocities, endpoint
values, terminal targets, the wedge's axis rotation) inside narrow fixed
ranges, and the runner passes it on as the ``--seed`` of verify and
probe-cq; the instance shape, grid sizes and difficulty stay fixed.  The
program under test sees only the problem JSON written here.

Each ``Instance`` is one solve -> verify (-> probe-cq) session.  ``expect``
carries closed-form answers where the instance has one, so the benchmark
can check the solver's output against them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Why each workload exists: which layer it stresses and which optimisation
# should, or should not, move it.  BENCHMARK.json repeats these reasons.
WHY = {
    "smooth": (
        "curved optima with cheap velocity sets on N=200,1000,4000: the ALM "
        "inner loop, expression evaluation and problem kernels dominate; "
        "projection is a clip"
    ),
    "wedge": (
        "0.1-rad polyhedral wedge at N=200, target at the apex (Dykstra "
        "projection is ~94% of the solve) and an off-apex twin that bypasses "
        "the slow path"
    ),
    "probe": (
        "unit-ball velocity set with rotational drift at N=200, then probe-cq: "
        "many short restoration ALMs, ball/product projection and line search"
    ),
}

SMOOTH_GRIDS = (200, 1000, 4000)
WEDGE_HALF_ANGLE = 0.1
WEDGE_GRID = 200
PROBE_GRID = 200
PROBE_SAMPLES = 24
PROBE_DELTA = 0.1
# modulus handed to verify so that the norm-bound check (BOUND) runs
VERIFY_KAPPA = 10.0
# Calls of each deterministic command per instance in a pass.  A pass holds
# 18 verify calls on every workload and about 2 s of solves on `probe`:
# fewer calls of these short commands (0.06 s per verify, 0.6 s per probe
# solve) measured too little work to give steady medians.
REPEATS = {
    "smooth": {"solve": 1, "verify": 3},
    "wedge": {"solve": 1, "verify": 9},
    "probe": {"solve": 4, "verify": 18},
}


@dataclass(frozen=True)
class Instance:
    name: str
    problem: dict
    grid: int
    probe_samples: int = 0
    expect: dict = field(default_factory=dict)


def _num(value: float) -> str:
    """A real as an expression literal (the grammar has no signed literals)."""
    text = repr(float(value))
    return f"({text})" if value < 0 else text


def _rot(angle: float) -> tuple[float, float]:
    return math.cos(angle), math.sin(angle)


def _reals(dim: int) -> dict:
    return {"type": "reals", "dim": dim}


def _pinned_start(x0: list[float]) -> dict:
    return {
        "type": "product",
        "factors": [{"type": "singleton", "point": x0}, _reals(len(x0))],
    }


def _problem(n, running, terminal, drift, omega1, omega2, ell=None) -> dict:
    out = {
        "version": 1,
        "n": n,
        "T": 1.0,
        "terminal_cost": terminal,
        "running_cost": running,
        "drift": drift,
        "omega1": omega1,
        "omega2": omega2,
    }
    if ell is not None:
        out["lipschitz_ell"] = ell
    return out


def _smooth(rng: random.Random) -> list[Instance]:
    a = round(rng.uniform(-0.1, 0.1), 6)
    b = round(rng.uniform(0.9, 1.1), 6)
    sin_problem = _problem(
        1, "v1^2/2+sin(x1)", "0", ["0"], _reals(1),
        {"type": "singleton", "point": [a, b]}, ell=3.0,
    )
    c = [round(1.5 + rng.uniform(-0.01, 0.01), 6),
         round(-1.2 + rng.uniform(-0.01, 0.01), 6),
         round(0.8 + rng.uniform(-0.01, 0.01), 6)]
    x0 = [round(rng.uniform(-0.02, 0.02), 6) for _ in range(3)]
    target = "+".join(f"(v{i + 1}-{_num(c[i])})^2" for i in range(3))
    box_problem = _problem(
        3, f"({target})/2+(x1^2+x2^2+x3^2)/2", "0",
        ["x2", "x3-x1", "x1-x2"],
        {"type": "box", "lower": [-1.0] * 3, "upper": [1.0] * 3},
        _pinned_start(x0),
    )
    out = []
    for N in SMOOTH_GRIDS:
        out.append(Instance(f"sin_N{N}", sin_problem, N))
        out.append(Instance(f"box_N{N}", box_problem, N))
    return out


def _wedge(rng: random.Random) -> list[Instance]:
    phi = rng.uniform(0.0, 2.0 * math.pi)
    half = WEDGE_HALF_ANGLE
    # outward face normals of {y : <n_plus, y> <= 0, <n_minus, y> <= 0}, the
    # cone of half-angle `half` around the axis at angle phi
    n_plus = _rot(phi + half + math.pi / 2)
    n_minus = _rot(phi - half - math.pi / 2)
    wedge = {"type": "polyhedron", "A": [list(n_plus), list(n_minus)],
             "b": [0.0, 0.0]}
    start = _pinned_start([0.0, 0.0])

    def target_cost(c):
        return f"((v1-{_num(c[0])})^2+(v2-{_num(c[1])})^2)/2"

    # unit target opposite the axis: it lies in the polar cone, so the
    # optimum is x = 0 with J = |c|^2 / 2
    apex_c = _rot(phi + math.pi)
    # unit target at angle beta beyond the + face: it projects onto that
    # face at cos(beta) * e_plus, so J = sin(beta)^2 / 2
    beta = 0.5
    face_c = _rot(phi + half + beta)
    e_plus = _rot(phi + half)
    return [
        Instance(
            "apex",
            _problem(2, target_cost(apex_c), "0", ["0", "0"], wedge, start),
            WEDGE_GRID,
            expect={"J": 0.5, "velocity": [0.0, 0.0]},
        ),
        Instance(
            "face",
            _problem(2, target_cost(face_c), "0", ["0", "0"], wedge, start),
            WEDGE_GRID,
            expect={
                "J": 0.5 * math.sin(beta) ** 2,
                "velocity": [math.cos(beta) * e for e in e_plus],
            },
        ),
    ]


def _probe(rng: random.Random) -> list[Instance]:
    x0 = [round(rng.uniform(-0.02, 0.02), 6) for _ in range(2)]
    angle = rng.uniform(0.75, 0.85)
    z = [round(x0[i] + 1.5 * _rot(angle)[i], 6) for i in range(2)]
    terminal = f"5*((xT_1-{_num(z[0])})^2+(xT_2-{_num(z[1])})^2)/2"
    problem = _problem(
        2, "(v1^2+v2^2)/2+cos(x2)", terminal, ["0.5*x2", "-0.5*x1"],
        {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
        _pinned_start(x0),
    )
    return [Instance("ball", problem, PROBE_GRID, probe_samples=PROBE_SAMPLES)]


_BUILDERS = {"smooth": _smooth, "wedge": _wedge, "probe": _probe}


def generate(workload: str, seed: int) -> list[Instance]:
    """The instances of one workload pass; the same seed gives the same
    instances."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
