"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: projections are
verified against exhaustive active-set enumeration, symbolic derivatives
against central finite differences, and quadrature orders against
refinement fits.
"""

from __future__ import annotations

import itertools

import numpy as np

from bolzakit import expr as ex
from bolzakit.funspace import Grid, Trajectory


def central_diff(f, x: float, step: float = 1e-6) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def project_polyhedron_active_set(A: np.ndarray, b: np.ndarray, x: np.ndarray,
                                  tol: float | None = None) -> np.ndarray:
    """Projection onto {y : Ay <= b} by trying every candidate active set.

    The true projection solves an equality-constrained least-distance
    problem on some subset of rows, so the feasible candidate closest to
    x over all subsets is the projection.  Exponential, test-scale only.

    A candidate counts as feasible when Ay <= b + tol; the default tol is
    1e-13 * (1 + |x| + max|b|), relative because the rows are not
    normalized (an absolute 1e-9 returned y = 1e-9 for {y <= 0}).  The
    Gram-matrix solve squares the conditioning of the active rows: on a
    wedge of half-angle 1e-3 rad its answer is off by 3.2e-12, so tests
    at 1e-12 on such narrow sets use a closed form instead.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    if tol is None:
        tol = 1e-13 * (1.0 + np.linalg.norm(x) + np.abs(b).max())
    m = A.shape[0]
    best = None
    best_dist = np.inf
    for size in range(0, min(m, x.shape[0]) + 1):
        for subset in itertools.combinations(range(m), size):
            if size == 0:
                y = x.copy()
            else:
                As = A[list(subset)]
                gram = As @ As.T
                if abs(np.linalg.det(gram)) < 1e-12:
                    continue
                nu = np.linalg.solve(gram, As @ x - b[list(subset)])
                y = x - As.T @ nu
            if np.all(A @ y <= b + tol):
                d = np.linalg.norm(y - x)
                if d < best_dist - 1e-15:
                    best_dist = d
                    best = y
    assert best is not None, "oracle found no feasible candidate"
    return best


# ---------------------------------------------------------------------------
# random safe expressions


def random_expr(rng: np.random.Generator, profile: str, dimension: int,
                depth: int, allow_exp: bool = True) -> ex.Expr:
    """Random expression tree that is smooth and domain-safe on the box
    |var| <= 2: log/sqrt arguments and divisors are bounded away from
    zero by construction, and exp nesting is limited to one level.
    """
    names = sorted(ex.legal_variables(profile, dimension))
    return _random_node(rng, names, depth, allow_exp)


def _random_node(rng, names, depth, allow_exp):
    if depth <= 0 or rng.uniform() < 0.25:
        if rng.uniform() < 0.4:
            return ex.Const(float(np.round(rng.uniform(-2.0, 2.0), 3)))
        return ex.Var(names[int(rng.integers(len(names)))])
    kind = rng.choice(
        ["add", "sub", "mul", "div", "pow", "neg", "sin", "cos", "exp", "log", "sqrt"]
    )
    if kind in ("add", "sub", "mul"):
        return ex.Binary(
            kind,
            _random_node(rng, names, depth - 1, allow_exp),
            _random_node(rng, names, depth - 1, allow_exp),
        )
    if kind == "div":
        num = _random_node(rng, names, depth - 1, allow_exp)
        den_core = _random_node(rng, names, depth - 2, allow_exp=False)
        # denominator 0.5 + e^2 stays >= 0.5
        den = ex.Binary(
            "add", ex.Const(0.5), ex.Binary("pow", den_core, ex.Const(2.0))
        )
        return ex.Binary("div", num, den)
    if kind == "pow":
        base = _random_node(rng, names, depth - 1, allow_exp)
        return ex.Binary("pow", base, ex.Const(float(rng.integers(2, 4))))
    if kind == "neg":
        return ex.Unary("neg", _random_node(rng, names, depth - 1, allow_exp))
    if kind in ("sin", "cos"):
        return ex.Unary(kind, _random_node(rng, names, depth - 1, allow_exp))
    if kind == "exp":
        if not allow_exp:
            return ex.Unary("sin", _random_node(rng, names, depth - 1, False))
        scaled = ex.Binary(
            "mul", ex.Const(0.25), _random_node(rng, names, depth - 1, False)
        )
        return ex.Unary("exp", scaled)
    # log / sqrt on 0.5 + e^2 >= 0.5
    core = _random_node(rng, names, depth - 2, allow_exp=False)
    safe = ex.Binary("add", ex.Const(0.5), ex.Binary("pow", core, ex.Const(2.0)))
    return ex.Unary(kind, safe)


def random_env(rng: np.random.Generator, names, scale: float = 1.5) -> dict:
    return {name: float(rng.uniform(-scale, scale)) for name in names}


def random_trajectory(grid: Grid, n: int, rng: np.random.Generator,
                      scale: float = 1.0) -> Trajectory:
    """Node-Gaussian random trajectory."""
    return Trajectory(grid, scale * rng.standard_normal((grid.N + 1, n)))


def fit_order(hs, errors) -> float:
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > 0
    if mask.sum() < 2:
        return np.inf
    return float(np.polyfit(np.log(hs[mask]), np.log(errors[mask]), 1)[0])


def dense_block_tridiagonal(diag: np.ndarray, upper: np.ndarray,
                            corner: np.ndarray | None = None) -> np.ndarray:
    """The full symmetric matrix of blocks stored last: diag (n, n, m),
    upper (n, n, m - 1) and the (0, m - 1) corner block."""
    n, _, m = diag.shape
    A = np.zeros((m * n, m * n))
    for k in range(m):
        A[k * n : (k + 1) * n, k * n : (k + 1) * n] += diag[:, :, k]
    for k in range(m - 1):
        A[k * n : (k + 1) * n, (k + 1) * n : (k + 2) * n] += upper[:, :, k]
        A[(k + 1) * n : (k + 2) * n, k * n : (k + 1) * n] += upper[:, :, k].T
    if corner is not None:
        A[:n, (m - 1) * n :] += corner
        A[(m - 1) * n :, :n] += corner.T
    return A
