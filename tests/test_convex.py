import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bolzakit import convex as cx

from oracles import project_polyhedron_active_set


def _set_zoo():
    return [
        cx.Reals(2),
        cx.Box([0.0, -1.0], [1.0, 2.0]),
        cx.Box([-np.inf, 0.0], [1.0, np.inf]),
        cx.Ball([0.5, -0.5], 1.5),
        cx.Singleton([1.0, 1.0]),
        cx.Polyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 0.0]),
        cx.Product([cx.Box([0.0], [1.0]), cx.Ball([0.0], 2.0)]),
    ]


# ---------------------------------------------------------------------------
# projection


def test_project_box_clamps():
    assert cx.project(cx.Box([0.0], [1.0]), [2.5]) == pytest.approx([1.0])


def test_project_ball_scales_radially():
    out = cx.project(cx.Ball([0.0, 0.0], 1.0), [3.0, 4.0])
    assert out == pytest.approx([0.6, 0.8])


def test_project_polyhedron_matches_active_set_oracle():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    b = np.array([1.0, 1.0, 0.0])
    S = cx.Polyhedron(A, b)
    got = cx.project(S, [2.0, 2.0])
    want = project_polyhedron_active_set(A, b, np.array([2.0, 2.0]))
    assert got == pytest.approx([1.0, 1.0], abs=1e-8)
    assert got == pytest.approx(want, abs=1e-8)


def test_project_batch_rows():
    S = cx.Box([0.0], [1.0])
    out = cx.project(S, [[-1.0], [0.25], [9.0]])
    assert np.allclose(out, [[0.0], [0.25], [1.0]])


def test_projection_matches_oracle_on_random_small_polyhedra():
    rng = np.random.default_rng(5)
    trials = 0
    while trials < 60:
        m = int(rng.integers(1, 4))
        A = rng.standard_normal((m, 2))
        b = rng.standard_normal(m) + 0.5
        try:
            S = cx.Polyhedron(A, b)
        except cx.EmptySetError:
            continue
        y = 3.0 * rng.standard_normal(2)
        got = cx.project(S, y)
        want = project_polyhedron_active_set(A, b, y)
        assert np.linalg.norm(got - want) <= 1e-12
        trials += 1


def _wedge(half: float, apex=(1.0, 0.0)):
    """Cone of half-angle ``half`` around the x-axis with the given apex,
    and its closed-form projection."""
    s, c = math.sin(half), math.cos(half)
    A = np.array([[-s, c], [-s, -c]])
    apex = np.asarray(apex, dtype=float)

    def closed_form(y):
        d = y - apex
        angle = math.atan2(d[1], d[0])
        if abs(angle) <= half:
            return y.copy()
        if abs(angle) >= half + math.pi / 2:
            return apex.copy()
        u = np.array([c, math.copysign(s, angle)])
        return apex + max(0.0, float(d @ u)) * u

    return A, A @ apex, closed_form


def test_narrow_wedges_load_as_nonempty():
    for half in (0.01, 1e-3):
        A, b, _ = _wedge(half)
        S = cx.Polyhedron(A, b)
        assert cx.project(S, [0.0, 0.0]) == pytest.approx([1.0, 0.0], abs=1e-12)


def test_empty_polyhedron_detected_at_load():
    with pytest.raises(cx.EmptySetError):
        cx.Polyhedron([[1.0], [-1.0]], [-1.0, -2.0])  # y <= -1 and y >= 2
    with pytest.raises(cx.EmptySetError):  # y >= 0 and y1 + y2 <= -1
        cx.Polyhedron([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, -1.0])


def test_zero_row_infeasible_detected():
    with pytest.raises(cx.EmptySetError):
        cx.Polyhedron([[0.0, 0.0]], [-1.0])


def test_narrow_wedge_projection_exact_and_angle_independent(monkeypatch):
    steps = [0]
    groups = cx._groups

    def counting(codes, live):
        steps[-1] += 1
        return groups(codes, live)

    monkeypatch.setattr(cx, "_groups", counting)
    rng = np.random.default_rng(3)
    offsets = np.vstack([
        1e-3 * rng.standard_normal((100, 2)),
        0.5 * rng.standard_normal((100, 2)),
        [[-0.5, 0.0], [0.1, 1e-5], [0.1, -1e-5]],
    ])
    counts = {}
    for half in (0.3, 0.05, 0.01, 1e-3):
        A, b, closed_form = _wedge(half)
        S = cx.Polyhedron(A, b)
        Y = np.array([1.0, 0.0]) + offsets
        steps.append(0)
        P = cx.project(S, Y)
        counts[half] = steps[-1]
        for y, p in zip(Y, P):
            assert np.linalg.norm(p - closed_form(y)) <= 1e-12
    # two batched steps reach the apex at every angle
    assert set(counts.values()) == {2}, counts


def _kkt_defect(A, b, y, p):
    """Largest KKT defect of p as the projection of y onto {Ay <= b},
    with multipliers fitted on the facets p lies on."""
    slack = A @ p - b
    scale = 1.0 + np.linalg.norm(y) + np.abs(b).max()
    active = np.abs(slack) <= 1e-9 * scale
    nu, *_ = np.linalg.lstsq(A[active].T, y - p, rcond=None)
    return max(
        float(slack.max(initial=0.0)),
        float((-nu).max(initial=0.0)),
        float(np.linalg.norm(y - p - A[active].T @ nu)),
    ) / scale


def test_projection_kkt_on_32_facet_polytope():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((32, 6))
    A /= np.linalg.norm(A, axis=1)[:, None]
    b = A @ (0.1 * rng.standard_normal(6)) + rng.uniform(0.5, 1.5, 32)
    S = cx.Polyhedron(A, b)
    Y = 3.0 * rng.standard_normal((200, 6))
    P = cx.project(S, Y)
    active_counts = set()
    for y, p in zip(Y, P):
        assert _kkt_defect(A, b, y, p) <= 1e-12
        active_counts.add(int((np.abs(A @ p - b) <= 1e-9).sum()))
    assert max(active_counts) >= 3  # vertices and edges, not only facets


# ---------------------------------------------------------------------------
# distance


def test_distance_examples():
    assert cx.distance(cx.Reals(2), [17.0, -3.0]) == 0.0
    assert cx.distance(cx.Singleton([1.0, 1.0]), [1.0, 2.0]) == pytest.approx(1.0)
    assert cx.distance(cx.Box([0.0], [1.0]), [-0.25]) == pytest.approx(0.25)


def test_contains_tolerance():
    S = cx.Box([0.0], [1.0])
    assert cx.distance(S, [1.0 + 5e-8]) <= cx.FEASIBILITY_TOL
    assert not cx.distance(S, [1.1]) <= cx.FEASIBILITY_TOL


# ---------------------------------------------------------------------------
# support


def _stacked(S, directions, **kwargs):
    """Support values of the directions queried as one (B, dim) batch,
    checked against one single-vector query per direction."""
    batch = cx.support(S, np.array(directions, dtype=float), **kwargs)
    assert batch.shape == (len(directions),)
    for value, xi in zip(batch, directions):
        single = cx.support(S, xi, **kwargs)
        assert value == single or abs(value - single) <= 1e-14 * (1 + abs(single))
    return batch.tolist()


def test_support_box_upper_bound_active():
    assert cx.support(cx.Box([-np.inf], [1.0]), [1.0]) == pytest.approx(1.0)
    assert _stacked(cx.Box([-np.inf], [1.0]), [[1.0], [-1.0], [0.0]]) == [
        1.0, math.inf, 0.0]


def test_support_box_unbounded_direction():
    assert cx.support(cx.Box([-np.inf], [1.0]), [-1.0]) == math.inf
    S = cx.Box([-np.inf, 0.0], [1.0, np.inf])
    assert _stacked(S, [[-1.0, 0.0], [1.0, -2.0], [1e-9, 1.0]], zero_tol=1e-6) == [
        math.inf, 1.0, math.inf]


def test_support_ball():
    assert cx.support(cx.Ball([0.0, 0.0], 2.0), [3.0, 4.0]) == pytest.approx(10.0)
    assert _stacked(cx.Ball([1.0, 0.0], 2.0), [[3.0, 4.0], [0.0, 0.0]]) == pytest.approx(
        [13.0, 0.0])


def test_support_reals():
    assert cx.support(cx.Reals(3), [0.0, 0.0, 0.0]) == 0.0
    assert cx.support(cx.Reals(3), [0.0, 1e-12, 0.0]) == math.inf
    assert cx.support(cx.Reals(3), [0.0, 1e-12, 0.0], zero_tol=1e-9) == 0.0
    rows = [[0.0, 0.0, 0.0], [0.0, 1e-12, 0.0], [1.0, 0.0, 0.0]]
    assert _stacked(cx.Reals(3), rows) == [0.0, math.inf, math.inf]
    assert _stacked(cx.Reals(3), rows, zero_tol=1e-9) == [0.0, 0.0, math.inf]


def test_support_simplex_vertex_enumeration():
    # unit simplex {y >= 0, y1 + y2 <= 1}: vertices (0,0), (1,0), (0,1)
    S = cx.Polyhedron(
        [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0]
    )
    assert cx.support(S, [2.0, 5.0]) == pytest.approx(5.0)
    assert cx.support(S, [2.0, -1.0]) == pytest.approx(2.0)
    assert cx.support(S, [-1.0, -1.0]) == pytest.approx(0.0)
    assert _stacked(S, [[2.0, 5.0], [2.0, -1.0], [-1.0, -1.0]]) == pytest.approx(
        [5.0, 2.0, 0.0])


def test_support_polyhedron_with_recession_ray():
    # half-line x >= 0 in 1D: {-x <= 0}
    S = cx.Polyhedron([[-1.0]], [0.0])
    assert cx.support(S, [1.0]) == math.inf
    assert cx.support(S, [-2.0]) == pytest.approx(0.0)
    assert _stacked(S, [[1.0], [-2.0], [0.0]]) == [math.inf, 0.0, 0.0]


def test_support_polyhedron_with_lineality():
    # slab {|y1| <= 1} in R^2: unbounded along y2
    S = cx.Polyhedron([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])
    assert cx.support(S, [1.0, 0.0]) == pytest.approx(1.0)
    assert cx.support(S, [0.0, 1.0]) == math.inf
    assert _stacked(S, [[1.0, 0.0], [0.0, 1.0], [-2.0, 1e-9]], zero_tol=1e-6) == (
        pytest.approx([1.0, math.inf, 2.0]))


def test_support_scale_cap():
    with pytest.raises(cx.SupportScaleError, match="enumeration scale exceeded"):
        cx.support(cx.Polyhedron(np.eye(7), np.ones(7)), np.ones(7))
    A = np.vstack([np.eye(2)] * 17)  # 34 facets
    with pytest.raises(cx.SupportScaleError):
        cx.support(cx.Polyhedron(A, np.ones(34)), [1.0, 1.0])
    with pytest.raises(cx.SupportScaleError):
        cx.support(cx.Polyhedron(A, np.ones(34)), np.ones((3, 2)))


def test_support_product_sums_factors():
    S = cx.Product([cx.Box([0.0], [1.0]), cx.Ball([0.0], 2.0)])
    assert cx.support(S, [1.0, 1.0]) == pytest.approx(1.0 + 2.0)
    S2 = cx.Product([cx.Reals(1), cx.Box([0.0], [1.0])])
    assert cx.support(S2, [1.0, 1.0]) == math.inf
    assert _stacked(S, [[1.0, 1.0], [-1.0, 0.0]]) == pytest.approx([3.0, 0.0])
    assert _stacked(S2, [[1.0, 1.0], [0.0, 1.0], [0.0, -1.0]]) == [
        math.inf, 1.0, 0.0]


# ---------------------------------------------------------------------------
# normal cone


def test_normal_cone_outward_at_face():
    assert cx.normal_cone_residual(cx.Box([0.0], [1.0]), [1.0], [5.0]) == 0.0


def test_normal_cone_interior_is_zero_only():
    res = cx.normal_cone_residual(cx.Box([0.0], [1.0]), [0.5], [1.0])
    assert res == pytest.approx(0.5)  # min(distance to face, |xi|)


def test_normal_cone_whole_space():
    assert cx.normal_cone_residual(cx.Reals(3), [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]) == 0.0


def test_normal_cone_requires_feasible_point():
    with pytest.raises(cx.InfeasiblePointError):
        cx.normal_cone_residual(cx.Box([0.0], [1.0]), [2.0], [1.0])


# ---------------------------------------------------------------------------
# invariants


def _sample_point(S, rng):
    return 3.0 * rng.standard_normal(S.dim)


def test_projection_characterization():
    # <y - Py, z - Py> <= 0 for all z in S
    rng = np.random.default_rng(11)
    count = 0
    sets = _set_zoo()
    while count < 1000:
        S = sets[count % len(sets)]
        y = _sample_point(S, rng)
        z = cx.project(S, _sample_point(S, rng))
        p = cx.project(S, y)
        assert float((y - p) @ (z - p)) <= 1e-8
        count += 1


def test_projection_nonexpansive():
    rng = np.random.default_rng(12)
    for S in _set_zoo():
        for _ in range(60):
            y1 = _sample_point(S, rng)
            y2 = _sample_point(S, rng)
            lhs = np.linalg.norm(cx.project(S, y1) - cx.project(S, y2))
            assert lhs <= np.linalg.norm(y1 - y2) + 1e-8


def test_support_dominates_members():
    rng = np.random.default_rng(13)
    for S in _set_zoo():
        for _ in range(40):
            xi = rng.standard_normal(S.dim)
            z = cx.project(S, _sample_point(S, rng))
            sigma = cx.support(S, xi)
            if math.isinf(sigma):
                continue
            assert sigma >= float(xi @ z) - 1e-8


def test_support_attained_on_compact_sets():
    rng = np.random.default_rng(14)
    compact = [
        cx.Box([0.0, -1.0], [1.0, 2.0]),
        cx.Ball([0.5, -0.5], 1.5),
        cx.Singleton([1.0, 1.0]),
        cx.Polyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 0.0]),
    ]
    for S in compact:
        for _ in range(25):
            xi = rng.standard_normal(S.dim)
            sigma = cx.support(S, xi)
            # the support value is attained: projecting a far point along xi
            # lands on a maximizer
            far = cx.project(S, 1e6 * xi)
            assert sigma >= float(xi @ far) - 1e-6
            assert sigma <= float(xi @ far) + 1e-3 * (1 + abs(sigma))


def test_product_decomposition():
    rng = np.random.default_rng(15)
    f1 = cx.Box([0.0], [1.0])
    f2 = cx.Ball([0.0, 0.0], 1.0)
    S = cx.Product([f1, f2])
    for _ in range(50):
        y = 2.0 * rng.standard_normal(3)
        p = cx.project(S, y)
        assert p[:1] == pytest.approx(cx.project(f1, y[:1]))
        assert p[1:] == pytest.approx(cx.project(f2, y[1:]))
        # Euclidean distance combines factor distances in quadrature
        d = cx.distance(S, y)
        d1 = cx.distance(f1, y[:1])
        d2 = cx.distance(f2, y[1:])
        assert d == pytest.approx(np.hypot(d1, d2), abs=1e-10)
        xi = rng.standard_normal(3)
        s = cx.support(S, xi)
        assert s == pytest.approx(
            cx.support(f1, xi[:1]) + cx.support(f2, xi[1:]), abs=1e-9
        )
        x = cx.project(S, 2.0 * rng.standard_normal(3))
        r = cx.normal_cone_residual(S, x, xi)
        r1 = cx.normal_cone_residual(f1, x[:1], xi[:1])
        r2 = cx.normal_cone_residual(f2, x[1:], xi[1:])
        assert r == pytest.approx(np.hypot(r1, r2), abs=1e-10)


# ---------------------------------------------------------------------------
# tangent cones and cone sums


def test_tangent_cone_box():
    S = cx.Box([0.0, 0.0], [1.0, 1.0])
    T = cx.tangent_cone(S, [0.0, 0.5])
    assert cx.distance(T, [1.0, -5.0]) == 0.0  # inward / free
    assert cx.distance(T, [-1.0, 0.0]) == pytest.approx(1.0)  # outward blocked


def test_tangent_cone_ball_boundary():
    S = cx.Ball([0.0, 0.0], 1.0)
    T = cx.tangent_cone(S, [1.0, 0.0])
    assert cx.distance(T, [-2.0, 3.0]) == pytest.approx(0.0)
    assert cx.distance(T, [1.0, 0.0]) == pytest.approx(1.0)


def test_projection_step_cap_error_carries_residual():
    S = cx.Polyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 0.0])
    with pytest.raises(cx.ProjectionError) as err:
        cx._project_polyhedron(S, np.array([[5.0, 7.0]]), max_iter=1)
    assert err.value.residual > 0


def test_neg_normal_sum_distance_boxes():
    # at the lower face of [0,1], N = (-inf, 0], so -N1 - N2 = [0, inf)
    S = cx.Box([0.0], [1.0])
    assert cx.neg_normal_sum_distance(S, [0.0], S, [0.0], [0.0]) == pytest.approx(0.0)
    assert cx.neg_normal_sum_distance(S, [0.0], S, [0.0], [3.0]) == pytest.approx(0.0)
    assert cx.neg_normal_sum_distance(S, [0.0], S, [0.0], [-2.0]) == pytest.approx(2.0)
    # at interior points both cones are {0}
    assert cx.neg_normal_sum_distance(S, [0.5], S, [0.5], [1.5]) == pytest.approx(1.5)


def test_neg_normal_sum_distance_polyhedral_cones():
    # at the wedge's apex the tangent cone is the wedge itself; with the
    # whole space second, the distance is |projection of -v onto it|
    half = 0.05
    A, b, closed_form = _wedge(half, apex=(0.0, 0.0))
    S = cx.Polyhedron(A, b)
    for v in ([-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.2]):
        v = np.asarray(v)
        want = np.linalg.norm(closed_form(-v))
        got = cx.neg_normal_sum_distance(S, [0.0, 0.0], cx.Reals(2), [0.0, 0.0], v)
        assert got == pytest.approx(want, abs=1e-12)
    # a singleton-by-box product: T = {0} x [0, inf) at the lower face
    P2 = cx.Product([cx.Singleton([1.0]), cx.Box([0.0], [1.0])])
    d = cx.neg_normal_sum_distance(P2, [1.0, 0.0], cx.Reals(2), [0.0, 0.0], [3.0, -2.0])
    assert d == pytest.approx(2.0, abs=1e-12)



def test_partial_step_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use (about 15 ms and 1 MB), so the
    # partial-step branch groups its rows with a set instead.  Projecting
    # this point onto these five facets takes a partial step: a facet leaves
    # the active set when its multiplier falls to zero.
    script = (
        "import sys\n"
        "from bolzakit.convex import Polyhedron, project\n"
        "project(Polyhedron([[-0.132, 0.64], [0.105, -0.536], [0.362, 1.304],\n"
        "                    [0.947, -0.704], [-1.265, -0.623]],\n"
        "                   [0.102, 0.872, 0.13, 0.757, 0.258]), [-0.386, 4.099])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    out = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
