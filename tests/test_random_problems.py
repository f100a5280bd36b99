"""Property test: random small problems go solve -> verify.

Each generated problem is feasible by construction: the straight line
x(t) = x0 + a t, whose velocity is the running cost's target a, keeps
w = a + g(x(t)) inside Omega1 (w is affine in t, so holding its two ends
with a margin suffices) and its endpoint pair (x0, x0 + a T) inside
Omega2.  The state term of the running cost is bounded and periodic, so
a minimizer exists even with free endpoints.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bolzakit import jsonio  # noqa: E402
from bolzakit import solver as sv  # noqa: E402
from bolzakit.optimality import certify  # noqa: E402

T = 1.0


def _num(value: float) -> str:
    return f"({float(value)!r})"


def _omega1(draw, ends: np.ndarray) -> dict:
    """A box, ball or wedge that holds both rows of ``ends`` with a margin."""
    n = ends.shape[1]
    margin = draw(st.sampled_from([0.05, 0.2, 0.5]))
    kind = draw(st.sampled_from(["box", "ball", "wedge"]))
    if kind == "box":
        return {"type": "box", "lower": (ends.min(axis=0) - margin).tolist(),
                "upper": (ends.max(axis=0) + margin).tolist()}
    mid = ends.mean(axis=0)
    if kind == "ball":
        center = mid + draw(st.sampled_from([0.0, 0.1])) * np.ones(n)
        radius = float(np.linalg.norm(ends - center, axis=1).max()) + margin
        return {"type": "ball", "center": center.tolist(), "radius": radius}
    if n == 1:  # the one-dimensional wedge is a half-line
        sign = draw(st.sampled_from([-1.0, 1.0]))
        return {"type": "polyhedron", "A": [[sign]],
                "b": [float((sign * ends).max()) + margin]}
    # the cone of half-angle `half` around the axis at angle psi, with its
    # apex far enough behind the midpoint that both ends clear each face
    half = draw(st.sampled_from([0.3, 0.6, 1.0]))
    psi = draw(st.sampled_from([k * math.pi / 4 for k in range(8)]))
    normals = np.array([[math.cos(angle), math.sin(angle)] for angle in
                        (psi + half + math.pi / 2, psi - half - math.pi / 2)])
    reach = max(float((normals @ (ends - mid).T).max()), 0.0) + margin
    apex = mid - reach / math.sin(half) * np.array([math.cos(psi), math.sin(psi)])
    return {"type": "polyhedron", "A": normals.tolist(), "b": (normals @ apex).tolist()}


def _endpoint_factor(draw, point: np.ndarray) -> dict:
    kind = draw(st.sampled_from(["singleton", "box", "reals"]))
    if kind == "singleton":
        return {"type": "singleton", "point": point.tolist()}
    if kind == "reals":
        return {"type": "reals", "dim": len(point)}
    below, above = (draw(st.sampled_from([0.0, 0.1, 0.5])) for _ in range(2))
    return {"type": "box", "lower": (point - below).tolist(),
            "upper": (point + above).tolist()}


@st.composite
def problems(draw):
    n = draw(st.sampled_from([1, 2]))
    N = draw(st.sampled_from([20, 50]))
    small = st.integers(-4, 4).map(lambda k: k / 4)
    a = np.array([draw(small) for _ in range(n)])
    x0 = np.array([draw(small) for _ in range(n)])
    B = np.array([[draw(st.integers(-2, 2)) / 10 for _ in range(n)] for _ in range(n)])
    c = draw(st.integers(-2, 2)) / 10
    i = draw(st.integers(1, n))
    target = "+".join(f"(v{k + 1}-{_num(a[k])})^2" for k in range(n))
    running = f"({target})/2+{_num(c)}*{draw(st.sampled_from(['sin', 'cos']))}(x{i})"
    drift = ["+".join(f"{_num(B[r, k])}*x{k + 1}" for k in range(n)) for r in range(n)]
    xT = x0 + a * T
    ends = np.stack([a + B @ x0, a + B @ xT])
    problem = {
        "version": 1, "n": n, "T": T, "terminal_cost": "0",
        "running_cost": running, "drift": drift,
        "omega1": _omega1(draw, ends),
        "omega2": {"type": "product", "factors": [_endpoint_factor(draw, x0),
                                                  _endpoint_factor(draw, xT)]},
    }
    return problem, N


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_random_problem_solves_and_certifies(case):
    problem, N = case
    P = jsonio.problem_from_json(problem)
    cfg = sv.SolverConfig(grid_N=N)
    r = sv.solve(P, cfg)
    assert r.converged, problem
    report = certify(P, r.x, r.mu, r.s1, r.s2)
    assert report.passed, (problem, report.render_text())
    again = sv.solve(P, cfg)
    assert again.history == r.history
    for first, second in ((r.x.values, again.x.values), (r.mu.values, again.mu.values),
                          (r.s1, again.s1), (r.s2, again.s2)):
        assert np.array_equal(first, second)
