"""Bolza problem data and its reduction to cost / constraint-map form.

A ProblemSpec holds the terminal cost phi(x(0), x(T)), the running cost
theta(t, x, v), the drift g(t, x), the velocity constraint set (for
x' + g(t,x)) and the endpoint constraint set for (x(0), x(T)).  On a grid
the problem reduces to a finite-dimensional program: this module provides
the discrete cost and its node gradient, the constraint image (velocity
part and endpoints), the constraint linearization and its adjoint, and
the feasibility defects.  The cost, its gradient, the image and the
adjoint are each one kernel on node arrays (cost, cost_gradient,
constraint_image, constraint_adjoint); the solver calls them directly
and the Trajectory functions call them after checking their arguments.

Quadrature convention: cell integrands are evaluated at the left node in
(t, x) with the exact cell velocity, i.e. a rectangle rule that is
first-order accurate and keeps the discrete stationarity system aligned
cell-by-cell with the continuous optimality conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .convex import ConvexSet, distance
from .funspace import CellPath, Grid, Trajectory


class ProblemError(ValueError):
    pass


@dataclass
class ProblemSpec:
    """Data of one Bolza problem instance.

    lipschitz_ell optionally declares a Lipschitz modulus for the running
    cost in (x, v); when absent, callers that need one estimate it by
    sampling (see estimate_lipschitz) and flag the provenance.
    """

    n: int
    T: float
    phi: ex.Expr
    theta: ex.Expr
    g: list
    omega1: ConvexSet
    omega2: ConvexSet
    lipschitz_ell: float | None = None

    # symbolic gradients, compiled once
    _theta_x: list = field(init=False, repr=False)
    _theta_v: list = field(init=False, repr=False)
    _phi_x0: list = field(init=False, repr=False)
    _phi_xT: list = field(init=False, repr=False)
    _g_jac: list = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ProblemError("state dimension must be positive")
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ProblemError("horizon T must be a positive real")
        if len(self.g) != self.n:
            raise ProblemError(f"drift needs {self.n} components, got {len(self.g)}")
        if self.omega1.dim != self.n:
            raise ProblemError(
                f"velocity constraint set has dimension {self.omega1.dim}, "
                f"expected {self.n}"
            )
        if self.omega2.dim != 2 * self.n:
            raise ProblemError(
                f"endpoint constraint set has dimension {self.omega2.dim}, "
                f"expected {2 * self.n}"
            )
        if self.lipschitz_ell is not None and not self.lipschitz_ell > 0:
            raise ProblemError("declared Lipschitz modulus must be positive")
        self._check_profile(self.theta, ex.PROFILE_RUNNING, "running cost")
        self._check_profile(self.phi, ex.PROFILE_TERMINAL, "terminal cost")
        for i, gi in enumerate(self.g):
            self._check_profile(gi, ex.PROFILE_DRIFT, f"drift component {i + 1}")
        xs = [f"x{i}" for i in range(1, self.n + 1)]
        vs = [f"v{i}" for i in range(1, self.n + 1)]
        self._theta_x = [ex.diff(self.theta, v) for v in xs]
        self._theta_v = [ex.diff(self.theta, v) for v in vs]
        self._phi_x0 = [ex.diff(self.phi, f"x0_{i}") for i in range(1, self.n + 1)]
        self._phi_xT = [ex.diff(self.phi, f"xT_{i}") for i in range(1, self.n + 1)]
        self._g_jac = [[ex.diff(gi, v) for v in xs] for gi in self.g]

    def _check_profile(self, e: ex.Expr, profile: str, what: str):
        legal = ex.legal_variables(profile, self.n)
        extra = ex.variables(e) - legal
        if extra:
            raise ProblemError(
                f"{what} uses variables {sorted(extra)} outside its profile"
            )

    # ---- vectorized expression evaluation over cells -------------------

    def _running_env(self, t: np.ndarray, X: np.ndarray, V: np.ndarray) -> dict:
        env = {"t": t}
        for i in range(self.n):
            env[f"x{i + 1}"] = X[:, i]
            env[f"v{i + 1}"] = V[:, i]
        return env

    def _drift_env(self, t: np.ndarray, X: np.ndarray) -> dict:
        env = {"t": t}
        for i in range(self.n):
            env[f"x{i + 1}"] = X[:, i]
        return env

    def _terminal_env(self, x0: np.ndarray, xT: np.ndarray) -> dict:
        env = {}
        for i in range(self.n):
            env[f"x0_{i + 1}"] = float(x0[i])
            env[f"xT_{i + 1}"] = float(xT[i])
        return env

    def _eval_cells(self, trees: list, env: dict, cells: int) -> np.ndarray:
        out = np.empty((cells, len(trees)))
        for j, tree in enumerate(trees):
            out[:, j] = np.broadcast_to(ex.eval_expr(tree, env), (cells,))
        return out

    def theta_cells(self, t, X, V) -> np.ndarray:
        env = self._running_env(t, X, V)
        return np.broadcast_to(ex.eval_expr(self.theta, env), (len(t),)).astype(float)

    def theta_grad_cells(self, t, X, V) -> tuple[np.ndarray, np.ndarray]:
        env = self._running_env(t, X, V)
        return (
            self._eval_cells(self._theta_x, env, len(t)),
            self._eval_cells(self._theta_v, env, len(t)),
        )

    def g_cells(self, t, X) -> np.ndarray:
        env = self._drift_env(t, X)
        return self._eval_cells(self.g, env, len(t))

    def g_jacobian_cells(self, t, X) -> np.ndarray:
        """Drift Jacobians per cell, shape (cells, n, n) with [k, i, j] =
        d g_i / d x_j."""
        env = self._drift_env(t, X)
        cells = len(t)
        out = np.empty((cells, self.n, self.n))
        for i in range(self.n):
            for j in range(self.n):
                out[:, i, j] = np.broadcast_to(
                    ex.eval_expr(self._g_jac[i][j], env), (cells,)
                )
        return out

    def phi_value(self, x0, xT) -> float:
        return float(ex.eval_expr(self.phi, self._terminal_env(x0, xT)))

    def phi_gradients(self, x0, xT) -> tuple[np.ndarray, np.ndarray]:
        env = self._terminal_env(x0, xT)
        gx0 = np.array([ex.eval_expr(e, env) for e in self._phi_x0])
        gxT = np.array([ex.eval_expr(e, env) for e in self._phi_xT])
        return gx0, gxT


@dataclass(frozen=True)
class ReducedImage:
    """Image of a trajectory under the constraint map: the per-cell
    velocity part x' + g(t, x) and the endpoint pair (x(0), x(T))."""

    velocity_part: CellPath
    endpoints: np.ndarray


def reduced_image_norm(img: ReducedImage) -> float:
    """L1 norm of the velocity part plus the Euclidean endpoint norm."""
    h = img.velocity_part.grid.h
    vel = float(h * np.linalg.norm(img.velocity_part.values, axis=1).sum())
    return vel + float(np.linalg.norm(img.endpoints))


def _check_grid(P: ProblemSpec, x: Trajectory):
    if x.n != P.n:
        raise ProblemError(f"trajectory dimension {x.n} != problem dimension {P.n}")
    if abs(x.grid.T - P.T) > 1e-12 * max(1.0, abs(P.T)):
        raise ProblemError(
            f"trajectory horizon {x.grid.T} != problem horizon {P.T}"
        )


# ---- kernels on node arrays ---------------------------------------------
# X has shape (N+1, n) on `grid`.  The kernels check nothing and accept
# non-finite values: the solver evaluates line-search trials with them,
# while a Trajectory rejects non-finite nodes.


def _cells(grid: Grid, X: np.ndarray):
    """Left-node times, left-node states and exact cell velocities (the
    slice difference is np.diff without its per-call overhead)."""
    return grid.cell_lefts(), X[:-1], (X[1:] - X[:-1]) / grid.h


def cost(P: ProblemSpec, grid: Grid, X: np.ndarray) -> float:
    """J_h = phi(x_0, x_N) + sum_k h * theta(t_k, x_k, v_k)."""
    t, XL, V = _cells(grid, X)
    running = float(grid.h * P.theta_cells(t, XL, V).sum())
    return P.phi_value(X[0], X[-1]) + running


def cost_gradient(P: ProblemSpec, grid: Grid, X: np.ndarray) -> np.ndarray:
    """Node gradient of J_h, shape (N+1, n)."""
    t, XL, V = _cells(grid, X)
    theta_x, theta_v = P.theta_grad_cells(t, XL, V)
    gx0, gxT = P.phi_gradients(X[0], X[-1])
    grad = np.zeros_like(X)
    grad[:-1] += grid.h * theta_x
    grad[:-1] -= theta_v
    grad[1:] += theta_v
    grad[0] += gx0
    grad[-1] += gxT
    return grad


def constraint_image(
    P: ProblemSpec, grid: Grid, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(W, E): the velocity part w_k = v_k + g(t_k, x_k), shape (N, n), and
    the endpoint pair E = (x_0, x_N)."""
    t, XL, V = _cells(grid, X)
    return V + P.g_cells(t, XL), np.concatenate([X[0], X[-1]])


def constraint_adjoint(
    P: ProblemSpec, grid: Grid, X: np.ndarray, MU: np.ndarray, S: np.ndarray
) -> np.ndarray:
    """Transpose of the constraint linearization at X: the node gradient
    of sum_k h <MU_k, w_k(X)> + <S, (x_0, x_N)> for cell values MU (N, n)
    and an endpoint vector S (2n,)."""
    n = P.n
    G = P.g_jacobian_cells(grid.cell_lefts(), X[:-1])
    out = np.zeros_like(X)
    out[:-1] = grid.h * np.einsum("kij,ki->kj", G, MU) - MU
    out[1:] += MU
    out[0] += S[:n]
    out[-1] += S[n:]
    return out


# ---- Trajectory interface ------------------------------------------------


def evaluate_cost(P: ProblemSpec, x: Trajectory) -> float:
    """phi(x_0, x_N) + sum_k h * theta(t_k, x_k, v_k)."""
    _check_grid(P, x)
    return cost(P, x.grid, x.values)


def gateaux_J(P: ProblemSpec, x: Trajectory, u: Trajectory) -> float:
    """Directional derivative of the cost at x in direction u:
    <grad phi, (u(0), u(T))> + int [<theta_x, u> + <theta_v, u'>],
    computed as the node pairing <cost_gradient(x), u>."""
    _check_grid(P, x)
    if not x.grid.compatible(u.grid) or u.n != x.n:
        raise ProblemError("direction must live on the trajectory's grid")
    grad = cost_gradient(P, x.grid, x.values)
    return float(np.einsum("ki,ki->", grad, u.values))


def apply_constraint(P: ProblemSpec, x: Trajectory) -> ReducedImage:
    """Constraint image: w_k = v_k + g(t_k, x_k) and (x_0, x_N)."""
    _check_grid(P, x)
    W, endpoints = constraint_image(P, x.grid, x.values)
    return ReducedImage(CellPath(x.grid, W), endpoints)


def apply_constraint_derivative(
    P: ProblemSpec, x: Trajectory, u: Trajectory
) -> ReducedImage:
    """Constraint linearization at x applied to u:
    (u' + g_x(t, x) u, (u(0), u(T)))."""
    _check_grid(P, x)
    if not x.grid.compatible(u.grid) or u.n != x.n:
        raise ProblemError("direction must live on the trajectory's grid")
    grid = x.grid
    G = P.g_jacobian_cells(grid.cell_lefts(), x.values[:-1])
    W = u.velocities() + np.einsum("kij,kj->ki", G, u.values[:-1])
    endpoints = np.concatenate([u.values[0], u.values[-1]])
    return ReducedImage(CellPath(grid, W), endpoints)


def feasibility_residual(P: ProblemSpec, x: Trajectory) -> tuple[float, float]:
    """(velocity_defect, endpoint_defect): the integrated distance of the
    velocity part from its constraint set and the Euclidean distance of
    the endpoint pair from its set."""
    img = apply_constraint(P, x)
    h = x.grid.h
    cell_dist = np.asarray(distance(P.omega1, img.velocity_part.values))
    velocity_defect = float(h * cell_dist.sum())
    endpoint_defect = float(distance(P.omega2, img.endpoints))
    return velocity_defect, endpoint_defect


def neighborhood_radius(x: Trajectory) -> float:
    """Default working radius around a reference curve for estimates."""
    from .funspace import ac_norm

    return 0.1 * (1.0 + ac_norm(x))


@dataclass(frozen=True)
class LipschitzEstimate:
    value: float
    provenance: str  # "declared" or "estimated"
    samples: int
    radius: float


def _sample_direction(grid: Grid, n: int, rng: np.random.Generator) -> np.ndarray:
    """Direction laws for Lipschitz sampling: alternate node-Gaussian
    draws with random low-degree polynomial curves.  Coherent (polynomial)
    directions are essential; purely Gaussian node noise has near-zero
    mean velocity and grossly underestimates the L1-dual ratio.
    """
    if rng.uniform() < 0.5:
        return rng.standard_normal((grid.N + 1, n))
    degree = int(rng.integers(1, 4))
    t = grid.nodes() / grid.T
    coeffs = rng.standard_normal((degree + 1, n))
    powers = np.vander(t, degree + 1, increasing=True)  # (N+1, degree+1)
    return powers @ coeffs


def estimate_lipschitz(
    P: ProblemSpec,
    xbar: Trajectory,
    samples: int = 200,
    seed: int = 0,
    radius: float | None = None,
) -> LipschitzEstimate:
    """Empirical Lipschitz modulus of the cost near xbar.

    Draws ``samples`` random trajectory pairs symmetric about xbar inside
    the given ac-radius and returns 1.5x the largest observed ratio
    |J(x1) - J(x2)| / ||x1 - x2||_ac.  Flagged as an estimate.
    """
    from .funspace import ac_norm

    if P.lipschitz_ell is not None:
        return LipschitzEstimate(P.lipschitz_ell, "declared", 0, 0.0)
    _check_grid(P, xbar)
    if radius is None:
        radius = neighborhood_radius(xbar)
    rng = np.random.default_rng(seed)
    grid = xbar.grid
    best = 0.0
    for _ in range(samples):
        d = _sample_direction(grid, P.n, rng)
        traj_d = Trajectory(grid, d)
        norm_d = ac_norm(traj_d)
        if norm_d < 1e-12:
            continue
        r = radius * rng.uniform(0.2, 1.0)
        step = (r / norm_d) * traj_d
        x1 = xbar + step
        x2 = xbar - step
        denom = 2.0 * r
        ratio = abs(evaluate_cost(P, x1) - evaluate_cost(P, x2)) / denom
        best = max(best, ratio)
    return LipschitzEstimate(1.5 * best, "estimated", samples, radius)
