"""Property test: the polyhedral projection agrees with exhaustive
active-set enumeration, including duplicate, redundant and opposite
(slab or hyperplane) rows and sets with lineality."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bolzakit import convex as cx  # noqa: E402

from oracles import project_polyhedron_active_set  # noqa: E402


@st.composite
def polyhedra(draw, dim=None):
    """(A, b) with at most 6 rows in dimension 1-4 (or dim), nonempty by
    construction: every row holds at an anchor point with some slack."""
    dim = dim or draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
    half = st.integers(0, 4).map(lambda k: k / 2)
    anchor = np.array(draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)),
                      dtype=float)
    rows, slacks = [], []
    for a in draw(st.lists(row, min_size=1, max_size=4)):
        rows.append(np.array(a, dtype=float))
        slacks.append(draw(half))
    for kind, i, extra, factor in draw(st.lists(
        st.tuples(st.sampled_from(["duplicate", "redundant", "opposite"]),
                  st.integers(0, 3), half, st.sampled_from([1.0, 2.0, 0.5])),
        max_size=6 - len(rows),
    )):
        a, s = rows[i % len(rows)], slacks[i % len(slacks)]
        if kind == "duplicate":  # the same halfspace, rescaled
            rows.append(factor * a)
            slacks.append(factor * s)
        elif kind == "redundant":  # the same normal, a looser offset
            rows.append(a.copy())
            slacks.append(s + extra + 0.5)
        else:  # the opposite side: a slab, or a hyperplane when extra = 0
            rows.append(-a)
            slacks.append(extra)
    A = np.array(rows)
    return A, A @ anchor + np.array(slacks)


points = st.lists(
    st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(polyhedra(), st.lists(points, min_size=1, max_size=5))
def test_projection_matches_enumeration(data, raw_points):
    A, b = data
    S = cx.Polyhedron(A, b)
    Y = np.array(raw_points)[:, : A.shape[1]]
    P = cx.project(S, Y)
    for y, p in zip(Y, P):
        want = project_polyhedron_active_set(A, b, y)
        assert np.linalg.norm(p - want) <= 1e-12 * (1.0 + np.linalg.norm(y))


# ---------------------------------------------------------------------------
# generalized Jacobian of y - project(S, y)

coordinates = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def simple_sets(draw, dim):
    kind = draw(st.sampled_from(["reals", "box", "ball", "singleton", "polyhedron"]))
    vec = st.lists(coordinates, min_size=dim, max_size=dim).map(np.array)
    if kind == "reals":
        return cx.Reals(dim)
    if kind == "box":
        a, b = draw(vec), draw(vec)
        lower, upper = np.minimum(a, b), np.maximum(a, b)
        lower[draw(st.lists(st.booleans(), min_size=dim, max_size=dim))] = -np.inf
        return cx.Box(lower, upper)
    if kind == "ball":
        return cx.Ball(draw(vec), draw(st.floats(0.1, 3.0)))
    if kind == "singleton":
        return cx.Singleton(draw(vec))
    return cx.Polyhedron(*draw(polyhedra(dim)))


@st.composite
def sets_and_points(draw):
    dim = draw(st.integers(1, 4))
    if dim >= 2 and draw(st.booleans()):
        cut = draw(st.integers(1, dim - 1))
        S = cx.Product([draw(simple_sets(cut)), draw(simple_sets(dim - cut))])
    else:
        S = draw(simple_sets(dim))
    y = np.array(draw(st.lists(coordinates, min_size=dim, max_size=dim)))
    return S, y


def _away_from_kinks(S, y) -> bool:
    """Whether project(S, .) is smooth (affine, or radial for a ball) on a
    neighbourhood of y larger than the finite-difference step."""
    margin = 1e-3
    if isinstance(S, cx.Product):
        return all(_away_from_kinks(f, part) for f, part in zip(S.factors, S._split(y)))
    if isinstance(S, cx.Box):
        gaps = np.abs(np.concatenate([y - S.lower, y - S.upper]))
        return bool((gaps[np.isfinite(gaps)] > margin).all())
    if isinstance(S, cx.Ball):
        return abs(np.linalg.norm(y - S.center) - S.radius) > margin
    if isinstance(S, cx.Polyhedron):
        # the points with one final active set form a convex region, so y
        # and its neighbours along each axis sharing one contain the steps
        probes = np.vstack([y, y + 1e-4 * np.eye(len(y)), y - 1e-4 * np.eye(len(y))])
        _, ids = cx._project_polyhedron(S, probes, active=True)
        return bool((ids == ids[0]).all())
    return True


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(sets_and_points())
def test_residual_jacobian_matches_central_difference(data):
    S, y = data
    assume(_away_from_kinks(S, y))
    step = 1e-6
    eye = np.eye(len(y))
    plus, minus = y + step * eye, y - step * eye
    fd = ((plus - cx.project(S, plus)) - (minus - cx.project(S, minus))).T / (2 * step)
    J = cx.residual_jacobian(S, y[None])[0]
    assert np.abs(J - fd).max() <= 1e-6, (S, y, J, fd)
