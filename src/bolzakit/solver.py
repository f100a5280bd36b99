"""Direct transcription and an augmented-Lagrangian solver.

The problem is discretized on a uniform grid and solved as

    min  J_h(x)   s.t.  w_k(x) := v_k + g(t_k, x_k) in Omega1  (each cell)
                        (x_0, x_N) in Omega2

by an augmented-Lagrangian method with explicit slacks: the inner loop
minimizes the augmented objective in x by gradient descent with Armijo
backtracking, the slacks are updated by exact projection, and the
multipliers by the standard dual ascent step.  Cell multipliers are kept
as densities (the dual pairing is sum_k h <mu_k, w_k>), so mu_k
approximates a multiplier function value rather than an h-scaled impulse.

The descent direction is the gradient in (x(0), velocity) coordinates
weighted by the discrete L2 inner product.  This is still plain gradient
descent, just measured in the geometry natural to the curve space; in raw
node coordinates the conditioning degrades like N^2 with grid refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import problem as pb
from .convex import ConvexSetError, project, project_normal_cone
from .funspace import CellPath, Grid, Trajectory, ac_norm


class SolverError(RuntimeError):
    def __init__(self, message: str, snapshot: np.ndarray | None = None):
        super().__init__(message)
        self.snapshot = snapshot


class UnboundedError(SolverError):
    pass


_OBJECTIVE_FLOOR = -1e12
_ARMIJO_C = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    grid_N: int = 200
    penalty_rho: float = 10.0
    penalty_growth: float = 4.0
    outer_iters: int = 60
    inner_tol: float = 1e-7
    inner_max_steps: int = 4000
    feas_tol: float = 1e-8

    def __post_init__(self):
        if self.grid_N < 1 or self.outer_iters < 1 or self.inner_max_steps < 1:
            raise ValueError("iteration counts must be positive")
        if not (self.penalty_rho > 0 and self.penalty_growth >= 1.0):
            raise ValueError("penalty parameters must be positive (growth >= 1)")
        if not self.inner_tol > 0:
            raise ValueError("inner tolerance must be positive")
        if self.feas_tol < 1e-12:
            raise ValueError("feasibility tolerance must be at least 1e-12")


@dataclass
class SolveResult:
    x: Trajectory
    mu: CellPath
    s1: np.ndarray
    s2: np.ndarray
    converged: bool
    objective: float
    stationarity: float
    velocity_defect: float
    endpoint_defect: float
    history: list = field(default_factory=list)


@dataclass
class RestoreResult:
    y: Trajectory
    ac_gap: float
    converged: bool


def _restore_objective(x_ref: Trajectory):
    """Half squared deviation from a reference curve, measured on the
    initial value and the cell velocities: (value, node gradient)."""
    h = x_ref.grid.h
    x0_ref = x_ref.values[0]
    v_ref = x_ref.velocities()

    def value(X: np.ndarray) -> float:
        d0 = X[0] - x0_ref
        dv = np.diff(X, axis=0) / h - v_ref
        return float(0.5 * (d0 @ d0) + 0.5 * h * np.einsum("ki,ki->", dv, dv))

    def grad(X: np.ndarray) -> np.ndarray:
        dv = np.diff(X, axis=0) / h - v_ref
        out = np.zeros_like(X)
        out[:-1] -= dv
        out[1:] += dv
        out[0] += X[0] - x0_ref
        return out

    return value, grad


# ---------------------------------------------------------------------------
# ALM core


class _AlmState:
    """ALM iterate for min value(X) subject to the problem's constraints;
    ``value`` and ``grad`` are the objective and its node gradient."""

    def __init__(self, P: pb.ProblemSpec, cfg: SolverConfig, grid: Grid,
                 value, grad, X0: np.ndarray):
        self.P = P
        self.cfg = cfg
        self.grid = grid
        self.value = value
        self.grad = grad
        self.X = X0.copy()
        # the node array under evaluation: the snapshot of a domain error
        self.point = self.X
        self.mu = np.zeros((grid.N, P.n))
        self.s = np.zeros(2 * P.n)
        self.rho = cfg.penalty_rho
        self.step = 1.0

    # -- augmented objective ----------------------------------------------

    def _shifted_residuals(self, X: np.ndarray):
        """Constraint image minus its projection after the dual shift:
        w - proj(w + mu/rho) per cell and e - proj(e + s/rho)."""
        W, E = pb.constraint_image(self.P, self.grid, X)
        dW = W - project(self.P.omega1, W + self.mu / self.rho)
        dE = E - project(self.P.omega2, E + self.s / self.rho)
        return dW, dE

    def _penalty(self, X: np.ndarray):
        """Penalty value and the shifted residuals it squares."""
        dW, dE = self._shifted_residuals(X)
        r_cells = dW + self.mu / self.rho
        r_end = dE + self.s / self.rho
        pen = 0.5 * self.rho * (
            self.grid.h * float(np.einsum("ki,ki->", r_cells, r_cells))
            + float(r_end @ r_end)
        )
        return pen, r_cells, r_end

    def aug_value(self, X: np.ndarray) -> float:
        self.point = X
        base = self.value(X)
        return base + self._penalty(X)[0]

    def aug_value_and_grad(self, X: np.ndarray) -> tuple[float, np.ndarray]:
        self.point = X
        base = self.value(X)
        pen, r_cells, r_end = self._penalty(X)
        grad = self.grad(X) + self.rho * pb.constraint_adjoint(
            self.P, self.grid, X, r_cells, r_end
        )
        return base + pen, grad

    def _lagrangian_gradient(self, S: np.ndarray) -> np.ndarray:
        """Node gradient of the plain Lagrangian at (X, mu, S)."""
        X = self.X
        return self.grad(X) + pb.constraint_adjoint(self.P, self.grid, X, self.mu, S)

    # -- metric descent ---------------------------------------------------

    def _metric_direction(self, grad: np.ndarray):
        """Descent direction and squared metric norm from a node gradient.

        Coordinates are (x(0), cell velocities); the velocity block is
        weighted by h so the gradient norm is grid-independent.
        """
        h = self.grid.h
        g0 = grad.sum(axis=0)
        # d/dv_j of F = h * sum_{m > j} grad_m
        tail = np.cumsum(grad[::-1], axis=0)[::-1]
        gV = h * tail[1:]
        d0 = -g0
        dV = -gV / h
        norm_sq = float(g0 @ g0) + float(np.einsum("ki,ki->", gV, gV)) / h
        return d0, dV, norm_sq

    def _apply_step(self, X: np.ndarray, d0: np.ndarray, dV: np.ndarray,
                    alpha: float) -> np.ndarray:
        h = self.grid.h
        x0 = X[0] + alpha * d0
        V = np.diff(X, axis=0) / h + alpha * dV
        out = np.empty_like(X)
        out[0] = x0
        out[1:] = x0 + h * np.cumsum(V, axis=0)
        return out

    def inner_minimize(self):
        cfg = self.cfg
        X = self.X
        F, grad = self.aug_value_and_grad(X)
        eps = float(np.finfo(float).eps)
        for _ in range(cfg.inner_max_steps):
            if F <= _OBJECTIVE_FLOOR:
                raise UnboundedError(
                    "unbounded below at this discretization", snapshot=X.copy()
                )
            d0, dV, norm_sq = self._metric_direction(grad)
            if np.sqrt(norm_sq) <= cfg.inner_tol:
                break
            # below this scale an Armijo decrease is not representable in
            # doubles; accepting such steps would poison the step carryover
            plateau = 16.0 * eps * (1.0 + abs(F))
            alpha = min(max(self.step * 2.0, 1e-16), 1e8)
            trial = None
            accepted = False
            while alpha * norm_sq > plateau:
                trial = self._apply_step(X, d0, dV, alpha)
                if self.aug_value(trial) <= F - _ARMIJO_C * alpha * norm_sq:
                    accepted = True
                    break
                alpha *= 0.5
            if accepted:
                X = trial
                self.step = alpha
                F, grad = self.aug_value_and_grad(X)
                continue
            # objective differences are below float resolution; continue
            # while the curvature-adapted step still shrinks the gradient
            advanced = False
            alpha = self.step
            for _ in range(8):
                trial = self._apply_step(X, d0, dV, alpha)
                F_t, grad_t = self.aug_value_and_grad(trial)
                _, _, ns_t = self._metric_direction(grad_t)
                if ns_t <= 0.995 * norm_sq:
                    X, F, grad = trial, F_t, grad_t
                    advanced = True
                    break
                alpha *= 0.5
            if not advanced:
                break  # true stationarity floor for this arithmetic
        self.X = self.point = X

    def update_duals(self):
        dW, dE = self._shifted_residuals(self.X)
        self.mu = self.mu + self.rho * dW
        self.s = self.s + self.rho * dE

    def initialize_endpoint_duals(self):
        """Least-squares endpoint multipliers, projected onto the normal
        cone at the projected endpoint pair.

        At a stationary warm start with inactive cell constraints this
        makes the Lagrangian gradient vanish immediately, so a solve
        started at an optimum converges in one outer iteration.
        """
        grad = self._lagrangian_gradient(np.zeros(2 * self.P.n))
        xi = -np.concatenate([grad[0], grad[-1]])
        _, E = pb.constraint_image(self.P, self.grid, self.X)
        self.s = project_normal_cone(self.P.omega2, project(self.P.omega2, E), xi)

    def measure(self) -> tuple[float, float, float, float]:
        """(objective, velocity defect, endpoint defect, stationarity) of
        the current iterate; stationarity is the metric norm of the
        plain-Lagrangian gradient at (X, mu, s)."""
        vdef, edef = pb.feasibility_residual(self.P, Trajectory(self.grid, self.X))
        _, _, norm_sq = self._metric_direction(self._lagrangian_gradient(self.s))
        return self.value(self.X), vdef, edef, float(np.sqrt(norm_sq))


def _default_init(P: pb.ProblemSpec, grid: Grid) -> np.ndarray:
    """Straight line between the halves of the projected zero endpoint pair."""
    z0 = project(P.omega2, np.zeros(2 * P.n))
    a, b = z0[: P.n], z0[P.n :]
    lam = (grid.nodes() / grid.T)[:, None]
    return (1.0 - lam) * a + lam * b


def _run_alm(P: pb.ProblemSpec, cfg: SolverConfig, grid: Grid, value, grad,
             X0: np.ndarray):
    """Minimize value(X) (node gradient grad(X)) over the constraints of P
    from X0.

    Each iterate is measured once.  Returns the final state, the history
    rows, whether the run converged, and the final iterate's measurement
    (objective, velocity defect, endpoint defect, stationarity).  An
    expression domain error or a failed projection becomes a SolverError
    whose snapshot is the node array whose evaluation failed.
    """
    state = _AlmState(P, cfg, grid, value, grad, X0)
    history = []
    converged = False
    prev_feas = np.inf
    try:
        state.initialize_endpoint_duals()
        objective, vdef, edef, stat = state.measure()
        for outer in range(1, cfg.outer_iters + 1):
            history.append(
                {
                    "outer_iter": outer,
                    "objective": objective,
                    "velocity_defect": vdef,
                    "endpoint_defect": edef,
                    "rho": state.rho,
                }
            )
            if vdef + edef <= cfg.feas_tol and stat <= cfg.inner_tol:
                converged = True
                break
            state.inner_minimize()
            state.update_duals()
            objective, vdef, edef, stat = state.measure()
            feas = vdef + edef
            # grow the penalty only while infeasibility is both above target
            # and not halving; growing past that wrecks inner conditioning
            if feas > cfg.feas_tol and feas > 0.5 * prev_feas:
                state.rho *= cfg.penalty_growth
            prev_feas = feas
    except pb.ex.ExprDomainError as err:
        raise SolverError(
            f"expression domain error: {err}", snapshot=state.point.copy()
        ) from err
    except ConvexSetError as err:
        raise SolverError(
            f"projection failed: {err}", snapshot=state.point.copy()
        ) from err
    return state, history, converged, (objective, vdef, edef, stat)


def solve(
    P: pb.ProblemSpec, cfg: SolverConfig, warm_start: Trajectory | None = None
) -> SolveResult:
    """Solve the discretized problem; returns the primal trajectory, the
    multiplier density for the velocity constraint, and the endpoint
    multipliers.  The objective, defects and stationarity are those
    measured on the final iterate, so a converged result's objective is
    its last history row's.

    With nonconvex data the result is a first-order point; the necessary
    conditions certified downstream do not distinguish local optimality.
    """
    grid = Grid(P.T, cfg.grid_N)
    if warm_start is not None:
        if warm_start.n != P.n or not warm_start.grid.compatible(grid):
            raise SolverError("warm start must live on the configured grid")
        X0 = warm_start.values.copy()
    else:
        X0 = _default_init(P, grid)
    state, history, converged, (objective, vdef, edef, stat) = _run_alm(
        P, cfg, grid,
        lambda X: pb.cost(P, grid, X), lambda X: pb.cost_gradient(P, grid, X),
        X0,
    )
    n = P.n
    return SolveResult(
        x=Trajectory(grid, state.X),
        mu=CellPath(grid, state.mu),
        s1=state.s[:n].copy(),
        s2=state.s[n:].copy(),
        converged=converged,
        objective=objective,
        stationarity=stat,
        velocity_defect=vdef,
        endpoint_defect=edef,
        history=history,
    )


def restore_feasibility(
    P: pb.ProblemSpec, x: Trajectory, cfg: SolverConfig
) -> RestoreResult:
    """Project x toward the feasible set: minimize half the squared
    deviation (initial value and velocities) over feasible curves and
    report the ac-norm gap, an upper bound for the ac-distance of x from
    the feasible set at this discretization.

    A nonconverged restoration still returns its best curve, with
    converged=False marking the bound unverified.
    """
    pb._check_grid(P, x)
    grid = x.grid
    value, grad = _restore_objective(x)
    state, _, converged, _ = _run_alm(P, cfg, grid, value, grad, x.values.copy())
    y = Trajectory(grid, state.X)
    return RestoreResult(y=y, ac_gap=ac_norm(y - x), converged=converged)
