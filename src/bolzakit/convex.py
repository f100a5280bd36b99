"""Closed convex sets with projection, distance, support and normal-cone
oracles.

Supported set forms: the whole space, boxes with infinite bounds, Euclidean
balls, H-polyhedra {y : Ay <= b}, singletons, and finite products.  All
forms are closed and convex by construction and immutable after __init__.

Projections are closed-form except for polyhedra, which are projected
exactly by a batched dual active-set method (Goldfarb-Idnani): the result
satisfies the projection's KKT conditions (feasibility, nonnegative
multipliers, tight active facets, y - p = A^T nu in unit-normal form) to
PROJECTION_TOL = 1e-12 relative to 1 + |y| + |p|, and ProjectionError is
raised otherwise.  The same method certifies at load time that a
polyhedron is nonempty.  Polyhedral support functions are evaluated by
enumerating vertices and recession rays at desk scale (dimension <= 6, at
most 32 facets).

Normal-cone membership is always tested through the projection identity
xi in N_S(x)  <=>  project(S, x + xi) = x,
which stays valid for unbounded sets.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .funspace import row_norms, vector_norm

FEASIBILITY_TOL = 1e-7
PROJECTION_TOL = 1e-12
PROJECTION_MAX_ITER = 1000
# an entering facet whose normal is this close to the span of the active
# normals is treated as linearly dependent on them
_DEPENDENT_TOL = 1e-7

SUPPORT_MAX_DIM = 6
SUPPORT_MAX_FACETS = 32


class ConvexSetError(ValueError):
    """Base class for convex-set failures."""


class ProjectionError(ConvexSetError):
    """Polyhedral projection hit its step cap or failed its KKT check;
    carries the worst scaled KKT residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class EmptySetError(ConvexSetError):
    """A polyhedron was found (or suspected) empty at load time."""


class SupportScaleError(ConvexSetError):
    """Polyhedron too large for exact vertex/ray enumeration."""


class InfeasiblePointError(ConvexSetError):
    """Normal-cone query at a point outside the set."""


def _vec(y, dim: int, what: str = "vector") -> np.ndarray:
    arr = np.asarray(y, dtype=float).reshape(-1)
    if arr.shape[0] != dim:
        raise ConvexSetError(f"{what} has dimension {arr.shape[0]}, expected {dim}")
    return arr


def _rows(y, dim: int) -> tuple[np.ndarray, bool]:
    """Input as a (B, dim) batch; flag says whether it was a single vector."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise ConvexSetError(
                f"point has dimension {arr.shape[0]}, expected {dim}"
            )
        return arr[None, :], True
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ConvexSetError(f"points must have shape (*, {dim}), got {arr.shape}")
    return arr, False


class Reals:
    """The whole space R^dim."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ConvexSetError("dimension must be positive")
        self.dim = int(dim)

    def __repr__(self):
        return f"Reals({self.dim})"


class Box:
    """Axis-aligned box; bounds may be -inf/+inf componentwise."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float).reshape(-1)
        self.upper = np.asarray(upper, dtype=float).reshape(-1)
        if self.lower.shape != self.upper.shape:
            raise ConvexSetError("box bounds must have equal length")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ConvexSetError("box bounds must not be NaN")
        if np.any(self.lower > self.upper):
            raise ConvexSetError("box requires lower <= upper componentwise")
        self.dim = self.lower.shape[0]
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    def __repr__(self):
        return f"Box({self.lower.tolist()}, {self.upper.tolist()})"


class Ball:
    """Closed Euclidean ball."""

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=float).reshape(-1)
        self.radius = float(radius)
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ConvexSetError("ball radius must be a positive real")
        if not np.all(np.isfinite(self.center)):
            raise ConvexSetError("ball center must be finite")
        self.dim = self.center.shape[0]
        self.center.setflags(write=False)

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class Singleton:
    """A single point."""

    def __init__(self, point):
        self.point = np.asarray(point, dtype=float).reshape(-1)
        if not np.all(np.isfinite(self.point)):
            raise ConvexSetError("singleton point must be finite")
        self.dim = self.point.shape[0]
        self.point.setflags(write=False)

    def __repr__(self):
        return f"Singleton({self.point.tolist()})"


class Polyhedron:
    """H-polyhedron {y : A y <= b}; certified nonempty at construction."""

    def __init__(self, A, b):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.asarray(b, dtype=float).reshape(-1)
        if self.A.shape[0] != self.b.shape[0]:
            raise ConvexSetError("A and b must have the same number of rows")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise ConvexSetError("polyhedron data must be finite")
        self.dim = self.A.shape[1]
        trivial = row_norms(self.A) <= 0.0
        if np.any(trivial & (self.b < 0.0)):
            raise EmptySetError("polyhedron has an unsatisfiable zero row")
        # drop 0 <= b rows; they carry no geometry
        keep = ~trivial
        self.A = self.A[keep]
        self.b = self.b[keep]
        self.A.setflags(write=False)
        self.b.setflags(write=False)
        self._enumeration = None  # cached (vertices, rays) in reduced frame
        self._active = _ActiveSets(self.A, self.b)
        # projecting the origin either finds a point of the set or meets
        # an unbounded dual, which proves the set empty
        _project_polyhedron(self, np.zeros((1, self.dim)), prove_empty=True)

    def __repr__(self):
        return f"Polyhedron(A={self.A.tolist()}, b={self.b.tolist()})"


class Product:
    """Finite product of convex sets, concatenating coordinates."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        if not self.factors:
            raise ConvexSetError("product needs at least one factor")
        self.dim = sum(f.dim for f in self.factors)

    def _split(self, arr: np.ndarray) -> list[np.ndarray]:
        out = []
        offset = 0
        for f in self.factors:
            out.append(arr[..., offset : offset + f.dim])
            offset += f.dim
        return out

    def __repr__(self):
        return f"Product({list(self.factors)})"


ConvexSet = Reals | Box | Ball | Singleton | Polyhedron | Product


# ---------------------------------------------------------------------------
# exact projection onto polyhedra: dual active-set method (batched over points)


class _ActiveSets:
    """Cached linear algebra of a polyhedron's active sets.

    Facets are kept as unit normals ``N`` with offsets ``d`` (the same
    halfspaces), so a facet's slack is its distance.  Each active set met
    is given an integer id; its factors and the dual step data for each
    entering facet are computed once per polyhedron.  (An SVD of the
    active normals rather than the inverse Gram block (N N^T)_KK, whose
    conditioning is its square: on a 1e-3-rad wedge the Gram inverse
    leaves KKT residuals near 6e-12, above PROJECTION_TOL.)
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        norms = row_norms(A)
        self.N = A / norms[:, None]
        self.d = b / norms
        self.N.setflags(write=False)
        self.d.setflags(write=False)
        self.d_col = self.d[:, None]
        self.sets: list[tuple] = [()]  # id -> sorted facet indices
        self._ids = {(): 0}
        self._solves: dict = {}
        self._steps: dict = {}

    def set_id(self, facets) -> int:
        key = tuple(sorted(facets))
        k = self._ids.get(key)
        if k is None:
            k = self._ids[key] = len(self.sets)
            self.sets.append(key)
        return k

    def solve(self, k: int):
        """Factors of active set k, with N_K^T = Q S V^T (thin SVD): Q,
        the map M = V S^-1 from w = Q^T y - c to the multipliers of all
        facets (zero off k), and c = S^-1 V^T d_K, so the facets of k hold
        with equality where Q^T p = c."""
        hit = self._solves.get(k)
        if hit is None:
            idx = list(self.sets[k])
            Q, sigma, Vt = np.linalg.svd(self.N[idx].T, full_matrices=False)
            M = np.eye(self.N.shape[0])[:, idx] @ (Vt.T / sigma)
            hit = self._solves[k] = (Q, M, (Vt @ self.d[idx]) / sigma)
        return hit

    def step(self, k: int, q: int):
        """Dual step data for facet q entering active set k: the rate r at
        which each multiplier falls per unit of the entering one, the
        facets with r > 0, the primal direction z (the part of q's normal
        orthogonal to the active normals; zero when q depends on them),
        |z|^2, the id of the active set after a full step, and the offsets
        as a column with that set's facets raised to +inf."""
        hit = self._steps.get((k, q))
        if hit is None:
            Q, M, _ = self.solve(k)
            coef = Q.T @ self.N[q]
            r = M @ coef
            z = self.N[q] - Q @ coef
            zz = float(z @ z)
            if zz <= _DEPENDENT_TOL**2:
                z, zz = np.zeros_like(z), 0.0
            k_full = self.set_id(self.sets[k] + (q,))
            cut = self.d_col.copy()
            cut[list(self.sets[k_full])] = np.inf
            hit = self._steps[(k, q)] = (
                r, np.nonzero(r > 0.0)[0], z, zz, k_full, cut
            )
        return hit

    def polish(self, k: int, y: np.ndarray):
        """Exact (multipliers, projections) of the rows of y onto the affine
        set where the facets of k hold with equality; multipliers are
        columns."""
        Q, M, c = self.solve(k)
        w = y @ Q - c
        return M @ w.T, y - w @ Q.T


def _groups(codes: np.ndarray, live: np.ndarray):
    """(code, rows) for each distinct code among the rows in ``live``;
    the rows are a slice when one code covers them all."""
    sub = codes[live]
    if (sub == sub[0]).all():
        return [(int(sub[0]), slice(None) if live.size == codes.size else live)]
    order = np.argsort(sub, kind="stable")
    ordered = sub[order]
    cuts = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), sub.size]
    return [(int(ordered[a]), live[order[a:b]]) for a, b in zip(cuts, cuts[1:])]


def _kkt_residual(C: _ActiveSets, y, p, nu) -> np.ndarray:
    """KKT residual of each row p, with multiplier column nu, as the
    projection of row y: primal feasibility, nu >= 0, tight facets where
    nu > 0, and y - p = N^T nu."""
    slack = C.N @ p.T - C.d_col
    facets = np.maximum(np.where(nu > 0.0, np.abs(slack), slack), -nu)
    return np.maximum(facets.max(axis=0), row_norms(y - p - nu.T @ C.N))


def _worst(residual: np.ndarray, tol: np.ndarray) -> float:
    """Largest KKT residual relative to the scale 1 + |y| + |p|."""
    return float((residual / tol).max()) * PROJECTION_TOL


def _project_polyhedron(S: "Polyhedron", Y: np.ndarray,
                        max_iter: int = PROJECTION_MAX_ITER,
                        prove_empty: bool = False, active: bool = False):
    """Project each row of Y onto {y : Ay <= b} by the dual active-set
    method of Goldfarb and Idnani (Math. Prog. 27, 1983).

    Rows inside the set are returned as they are.  Each violating row
    starts from the unconstrained minimizer y with no active facet, takes
    its most violated facet and raises that facet's multiplier until the
    facet holds (a full step: the facet joins the active set) or an active
    multiplier reaches zero (a partial step: that facet leaves).  A facet
    whose normal depends linearly on the active ones takes partial steps
    only, so active normals stay independent; if it has none to take, the
    dual is unbounded, which proves the set empty.  After a full step the
    row is recomputed exactly from its active set, as p; it is done when
    no facet is violated by more than PROJECTION_TOL relative to
    1 + |y| + |p|.  Rows sharing (active set, entering facet) step
    together.

    The result must then pass the KKT check to the same tolerance.
    ProjectionError, carrying the worst scaled KKT residual, is raised
    when it does not, when ``max_iter`` steps do not finish, or when the
    dual is unbounded (EmptySetError instead with ``prove_empty``).

    With ``active`` the result is (projections, ids): ids holds each row's
    final active-set id in ``S._active`` (0, the empty set, for rows that
    were inside).
    """
    C = S._active
    m = C.N.shape[0]
    # slacks and multipliers hold one column per row of Y, so reductions
    # over facets run along axis 0
    y_norm = row_norms(Y)
    slack = C.N @ Y.T - C.d_col
    outside = slack.max(axis=0, initial=-np.inf) > PROJECTION_TOL * (1.0 + 2.0 * y_norm)
    rows = outside.nonzero()[0]
    ids = np.zeros(Y.shape[0], dtype=np.int64)
    if not rows.size:
        return (Y.copy(), ids) if active else Y.copy()
    y = Y
    if rows.size < Y.shape[0]:
        y, y_norm, slack = Y[rows], y_norm[rows], slack[:, rows]
    p = y.copy()
    nu = np.zeros((m, rows.size))
    tol = PROJECTION_TOL * (1.0 + 2.0 * y_norm)  # to 1 + |y| + |p| once done
    kid = np.zeros(rows.size, dtype=np.int64)  # active-set id of each row
    enter = slack.argmax(axis=0)  # entering facet; -1 once finished
    live = np.arange(rows.size)
    for _ in range(max_iter):
        for code, g in _groups(kid * m + enter, live):
            k, q = divmod(code, m)
            r, falling, z, zz, k_full, cut = C.step(k, q)
            if falling.size:
                g = np.arange(rows.size)[g]
                t_full = (p[g] @ C.N[q] - C.d[q]) / zz if zz else np.inf
                ratios = np.maximum(nu[falling][:, g], 0.0) / r[falling, None]
                block = ratios.argmin(axis=0)
                t_part = ratios.min(axis=0)
                full = t_full <= t_part
                part = ~full
                g_part, t = g[part], t_part[part]
                p[g_part] -= t[:, None] * z
                nu[:, g_part] -= r[:, None] * t
                nu[q, g_part] += t
                # (np.unique would import numpy.ma)
                for j in sorted(set(block[part].tolist())):
                    drop = g_part[block[part] == j]
                    facet = int(falling[j])
                    nu[facet, drop] = 0.0
                    kid[drop] = C.set_id(f for f in C.sets[k] if f != facet)
                g = g[full]
                if not g.size:
                    continue
            elif not zz:
                if prove_empty:
                    raise EmptySetError(
                        "polyhedron is empty: a violated facet's normal is a "
                        "nonpositive combination of active facet normals "
                        "(a Farkas certificate)"
                    )
                raise ProjectionError(
                    "projection dual is unbounded on a polyhedron certified "
                    "nonempty (numerically degenerate facets)",
                    _worst(_kkt_residual(C, y, p, nu), tol),
                )
            kid[g] = k_full
            nu[:, g], p[g] = C.polish(k_full, y[g])
            gaps = C.N @ p[g].T - cut  # -inf on the facets of k_full
            tol[g] = PROJECTION_TOL * (1.0 + y_norm[g] + row_norms(p[g]))
            enter[g] = np.where(gaps.max(axis=0) <= tol[g], -1, gaps.argmax(axis=0))
        live = (enter >= 0).nonzero()[0]
        if not live.size:
            break
    else:
        residual = _worst(_kkt_residual(C, y, p, nu), tol)
        raise ProjectionError(
            f"polyhedral projection did not finish within {max_iter} "
            f"active-set steps (KKT residual {residual:.3e})",
            residual,
        )
    residual = _kkt_residual(C, y, p, nu)
    if (residual > tol).any():
        worst = _worst(residual, tol)
        raise ProjectionError(
            f"polyhedral projection failed its KKT check (residual "
            f"{worst:.3e} > {PROJECTION_TOL:.0e})",
            worst,
        )
    ids[rows] = kid
    if rows.size == Y.shape[0]:
        out = p
    else:
        out = Y.copy()
        out[rows] = p
    return (out, ids) if active else out


# ---------------------------------------------------------------------------
# projection / distance


def project(S: ConvexSet, y) -> np.ndarray:
    """Euclidean projection onto S.

    Accepts a single vector or a (B, dim) batch of row vectors and returns
    the same shape.
    """
    Y, single = _rows(y, S.dim)
    out = _project_rows(S, Y)
    return out[0] if single else out


def _project_rows(S: ConvexSet, Y: np.ndarray) -> np.ndarray:
    if isinstance(S, Reals):
        return Y.copy()
    if isinstance(S, Box):
        return np.clip(Y, S.lower, S.upper)
    if isinstance(S, Ball):
        delta = Y - S.center
        dist = row_norms(delta)
        scale = np.ones_like(dist)
        outside = dist > S.radius
        scale[outside] = S.radius / dist[outside]
        return S.center + delta * scale[:, None]
    if isinstance(S, Singleton):
        return np.tile(S.point, (Y.shape[0], 1))
    if isinstance(S, Polyhedron):
        return _project_polyhedron(S, Y)
    if isinstance(S, Product):
        parts = [_project_rows(f, block) for f, block in zip(S.factors, S._split(Y))]
        return np.concatenate(parts, axis=1)
    raise ConvexSetError(f"unknown set form {type(S).__name__}")


def residual_jacobian(S: ConvexSet, Y: np.ndarray) -> np.ndarray:
    """An element of the generalized Jacobian of y - project(S, y) at each
    row of the (B, dim) batch Y, shape (B, dim, dim).  Half the squared
    distance to S has gradient y - project(S, y), so this is its
    generalized Hessian (Clarke; exact away from kinks): zero for the whole
    space, the identity for a point, the mask of clipped components for a
    box, the radial scaling outside a ball, and for a polyhedron the
    projector Q Q^T onto the span of the row's final active normals."""
    B, dim = Y.shape
    if isinstance(S, Product):
        out = np.zeros((B, dim, dim))
        offset = 0
        for f, block in zip(S.factors, S._split(Y)):
            out[:, offset : offset + f.dim, offset : offset + f.dim] = (
                residual_jacobian(f, block))
            offset += f.dim
        return out
    if isinstance(S, Reals):
        return np.zeros((B, dim, dim))
    if isinstance(S, Singleton):
        return np.broadcast_to(np.eye(dim), (B, dim, dim)).copy()
    if isinstance(S, Box):
        clipped = (Y < S.lower) | (Y > S.upper)
        out = np.zeros((B, dim, dim))
        out[:, np.arange(dim), np.arange(dim)] = clipped
        return out
    if isinstance(S, Ball):
        delta = Y - S.center
        dist = row_norms(delta)
        out = np.zeros((B, dim, dim))
        outside = dist > S.radius
        u = delta[outside] / dist[outside, None]
        scale = (S.radius / dist[outside])[:, None, None]
        out[outside] = (1.0 - scale) * np.eye(dim) + scale * (
            u[:, :, None] * u[:, None, :])
        return out
    if isinstance(S, Polyhedron):
        _, ids = _project_polyhedron(S, Y, active=True)
        out = np.zeros((B, dim, dim))
        for k in set(ids.tolist()) - {0}:  # (np.unique would import numpy.ma)
            Q = S._active.solve(k)[0]
            out[ids == k] = Q @ Q.T
        return out
    raise ConvexSetError(f"unknown set form {type(S).__name__}")


def distance(S: ConvexSet, y) -> float | np.ndarray:
    """Euclidean distance ||y - project(S, y)||; zero iff y in S."""
    Y, single = _rows(y, S.dim)
    if isinstance(S, Reals):
        d = np.zeros(Y.shape[0])
    else:
        d = row_norms(Y - _project_rows(S, Y))
    return float(d[0]) if single else d


# ---------------------------------------------------------------------------
# support functions


def support(S: ConvexSet, xi, zero_tol: float = 0.0) -> float | np.ndarray:
    """Support value sup{<xi, w> : w in S}; +inf when the supremum is
    unattained along a recession direction.

    Accepts a single vector (returns a float) or a (B, dim) batch of row
    vectors (returns B values).  ``zero_tol`` treats components of xi
    within tolerance of zero as zero before testing unbounded directions,
    which lets callers with noisy inputs query sets such as the whole
    space without spurious infinities.
    """
    X, single = _rows(xi, S.dim)
    out = _support_rows(S, X, zero_tol)
    return float(out[0]) if single else out


def _support_rows(S: ConvexSet, X: np.ndarray, zero_tol: float) -> np.ndarray:
    if isinstance(S, Reals):
        return np.where(row_norms(X) <= zero_tol, 0.0, np.inf)
    if isinstance(S, Box):
        # zeroed components pick a 0 bound, so 0 * inf never occurs
        live = np.abs(X) > zero_tol
        bound = np.where(live, np.where(X > 0, S.upper, S.lower), 0.0)
        return (X * bound).sum(axis=1)
    if isinstance(S, Ball):
        return X @ S.center + S.radius * row_norms(X)
    if isinstance(S, Singleton):
        return X @ S.point
    if isinstance(S, Polyhedron):
        return _polyhedron_support(S, X, zero_tol)
    if isinstance(S, Product):
        return sum(_support_rows(f, block, zero_tol)
                   for f, block in zip(S.factors, S._split(X)))
    raise ConvexSetError(f"unknown set form {type(S).__name__}")


def _polyhedron_support(S: Polyhedron, X: np.ndarray, zero_tol: float) -> np.ndarray:
    if S.dim > SUPPORT_MAX_DIM or S.A.shape[0] > SUPPORT_MAX_FACETS:
        raise SupportScaleError(
            "enumeration scale exceeded: polyhedral support is computed "
            f"exactly only up to dimension {SUPPORT_MAX_DIM} and "
            f"{SUPPORT_MAX_FACETS} facets (got dim {S.dim}, "
            f"{S.A.shape[0]} facets)"
        )
    basis, vertices, rays = _enumerate(S)
    red = X @ basis
    scale = max(zero_tol, 1e-10) * np.maximum(1.0, row_norms(red))
    unbounded = (red @ rays.T > scale[:, None]).any(axis=1)
    # lineality directions (null space of A) recede both ways
    if basis.shape[1] < S.dim:
        residual = row_norms(X - red @ basis.T)
        unbounded |= residual > np.maximum(zero_tol, 1e-12 * (1 + row_norms(X)))
    return np.where(unbounded, np.inf, (red @ vertices.T).max(axis=1))


def _enumerate(S: Polyhedron):
    """Vertices and extreme rays of the polyhedron, in an orthonormal
    frame of the orthogonal complement of its lineality space.

    Returns (basis, vertices, rays): basis has shape (dim, d_red); vertex
    and ray rows are coordinates w.r.t. that basis.  Cached per instance.
    """
    if S._enumeration is not None:
        return S._enumeration
    A, b = S.A, S.b
    dim = S.dim
    if A.shape[0] == 0:
        # the whole space: its reduced frame is a point, the one vertex
        S._enumeration = (np.zeros((dim, 0)), np.zeros((1, 0)), np.zeros((0, 0)))
        return S._enumeration
    # orthonormal basis of row space; its complement is the lineality space
    _, sing, vt = np.linalg.svd(A)
    rank = int((sing > 1e-10 * sing[0]).sum())
    basis = vt[:rank].T  # (dim, rank)
    B = A @ basis  # reduced, pointed description {z : Bz <= b}
    d = rank
    m = B.shape[0]

    vertices = []
    for subset in itertools.combinations(range(m), d):
        sub = B[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        z = np.linalg.solve(sub, b[list(subset)])
        if np.all(B @ z <= b + 1e-8 * (1 + np.abs(b))):
            vertices.append(z)
    vertices = _dedupe(np.array(vertices).reshape(-1, d))

    if vertices.shape[0] == 0:
        raise ConvexSetError(
            "vertex enumeration found no vertices of a pointed polyhedron; "
            "the description is numerically degenerate"
        )

    row_scale = 1.0 + row_norms(B)
    rays = []
    if d == 1:
        for cand in (np.array([1.0]), np.array([-1.0])):
            if np.all(B @ cand <= 1e-9 * row_scale):
                rays.append(cand)
    else:
        for subset in itertools.combinations(range(m), d - 1):
            sub = B[list(subset)]
            _, s2, vt2 = np.linalg.svd(sub)
            null_dim = d - int((s2 > 1e-10 * max(s2[0], 1e-300)).sum())
            if null_dim != 1:
                continue
            cand = vt2[-1]
            for direction in (cand, -cand):
                if np.all(B @ direction <= 1e-9 * row_scale):
                    rays.append(direction / np.linalg.norm(direction))
    rays = _dedupe(np.array(rays).reshape(-1, d))

    result = (basis, vertices, rays)
    S._enumeration = result
    return result


def _dedupe(points: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    width = points.shape[1] if points.ndim == 2 else 0
    kept: list[np.ndarray] = []
    for p in points:
        if all(np.linalg.norm(p - q) > tol for q in kept):
            kept.append(p)
    if not kept:
        return np.zeros((0, width))
    return np.array(kept)


# ---------------------------------------------------------------------------
# normal and tangent cones


def normal_cone_residual(
    S: ConvexSet, x, xi, feas_tol: float = FEASIBILITY_TOL
) -> float | np.ndarray:
    """Membership defect of xi in the normal cone to S at x, via the
    projection identity: returns ||project(S, x + xi) - x||.

    x must belong to S up to ``feas_tol`` (the normal cone is empty
    elsewhere).  Accepts batched rows for x and xi.
    """
    X, single = _rows(x, S.dim)
    XI, single_xi = _rows(xi, S.dim)
    if X.shape != XI.shape:
        raise ConvexSetError("x and xi batches must have matching shapes")
    dist = np.asarray(distance(S, X)).reshape(-1)
    worst = float(dist.max())
    if worst > feas_tol:
        raise InfeasiblePointError(
            f"normal-cone query at an infeasible point: distance {worst:.3e} "
            f"exceeds tolerance {feas_tol:.1e}"
        )
    res = row_norms(_project_rows(S, X + XI) - X)
    return float(res[0]) if (single and single_xi) else res


def tangent_cone(S: ConvexSet, x, tol: float = 1e-9) -> ConvexSet:
    """Tangent cone to S at a point of S, expressed as another set."""
    p = _vec(x, S.dim, "point")
    if isinstance(S, Reals):
        return Reals(S.dim)
    if isinstance(S, Box):
        lower = np.full(S.dim, -math.inf)
        upper = np.full(S.dim, math.inf)
        at_lower = p <= S.lower + tol
        at_upper = p >= S.upper - tol
        lower[at_lower] = 0.0
        upper[at_upper] = 0.0
        return Box(lower, upper)
    if isinstance(S, Ball):
        gap = S.radius - np.linalg.norm(p - S.center)
        if gap > tol:
            return Reals(S.dim)
        normal = (p - S.center)[None, :]
        return Polyhedron(normal, np.zeros(1))
    if isinstance(S, Singleton):
        return Singleton(np.zeros(S.dim))
    if isinstance(S, Polyhedron):
        slack = S.b - S.A @ p
        active = slack <= tol * (1.0 + np.abs(S.b))
        if not np.any(active):
            return Reals(S.dim)
        return Polyhedron(S.A[active], np.zeros(int(active.sum())))
    if isinstance(S, Product):
        return Product(
            tangent_cone(f, block, tol) for f, block in zip(S.factors, S._split(p))
        )
    raise ConvexSetError(f"unknown set form {type(S).__name__}")


def project_normal_cone(S: ConvexSet, x, xi) -> np.ndarray:
    """Projection of xi onto the normal cone to S at x (Moreau split
    against the tangent cone)."""
    v = _vec(xi, S.dim, "vector")
    T = tangent_cone(S, x)
    return v - project(T, v)


def _halfspaces(S: ConvexSet) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) with S = {y : Ay <= b}, for the polyhedral set forms."""
    eye = np.eye(S.dim)
    if isinstance(S, Reals):
        return eye[:0], np.zeros(0)
    if isinstance(S, Box):
        up, lo = np.isfinite(S.upper), np.isfinite(S.lower)
        return (np.vstack([eye[up], -eye[lo]]),
                np.concatenate([S.upper[up], -S.lower[lo]]))
    if isinstance(S, Singleton):
        return np.vstack([eye, -eye]), np.concatenate([S.point, -S.point])
    if isinstance(S, Polyhedron):
        return S.A, S.b
    if isinstance(S, Product):
        blocks = [_halfspaces(f) for f in S.factors]
        A = np.zeros((sum(a.shape[0] for a, _ in blocks), S.dim))
        row = col = 0
        for f, (a, _) in zip(S.factors, blocks):
            A[row : row + a.shape[0], col : col + f.dim] = a
            row += a.shape[0]
            col += f.dim
        return A, np.concatenate([b for _, b in blocks])
    raise ConvexSetError(f"{type(S).__name__} is not polyhedral")


def neg_normal_sum_distance(S1: ConvexSet, x1, S2: ConvexSet, x2, v) -> float:
    """Distance from v to -N_{S1}(x1) - N_{S2}(x2).

    By Moreau's decomposition against the polar cone, the distance from v
    to -(N1 + N2) equals the norm of the projection of -v onto the
    intersection of the tangent cones T1 and T2 (the polars of N1, N2).
    Tangent cones are polyhedral, so the intersection is one polyhedron
    holding the halfspaces of both, projected exactly.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    A1, b1 = _halfspaces(tangent_cone(S1, x1))
    A2, b2 = _halfspaces(tangent_cone(S2, x2))
    inter = Polyhedron(np.vstack([A1, A2]), np.concatenate([b1, b2]))
    return vector_norm(project(inter, -v))
