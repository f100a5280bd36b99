"""Property test: the polyhedral projection agrees with exhaustive
active-set enumeration, including duplicate, redundant and opposite
(slab or hyperplane) rows and sets with lineality."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bolzakit import convex as cx  # noqa: E402

from oracles import project_polyhedron_active_set  # noqa: E402


@st.composite
def polyhedra(draw):
    """(A, b) with at most 6 rows in dimension 1-4, nonempty by
    construction: every row holds at an anchor point with some slack."""
    dim = draw(st.integers(1, 4))
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
