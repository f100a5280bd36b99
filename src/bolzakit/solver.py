"""Direct transcription and an augmented-Lagrangian solver.

The problem is discretized on a uniform grid and solved as

    min  J_h(x)   s.t.  w_k(x) := v_k + g(t_k, x_k) in Omega1  (each cell)
                        (x_0, x_N) in Omega2

by an augmented-Lagrangian method with explicit slacks: the inner loop
minimizes the augmented objective in x, the slacks are updated by exact
projection, and the multipliers by the standard dual ascent step.  Cell
multipliers are kept as densities (the dual pairing is sum_k h <mu_k, w_k>),
so mu_k approximates a multiplier function value rather than an h-scaled
impulse.

The inner loop is L-BFGS (Nocedal & Wright, Numerical Optimization, ch. 7)
in (x(0), velocity) coordinates under the discrete L2 inner product
<a, b> = a_0.b_0 + h sum_j a_j.b_j, the geometry natural to the curve
space: there iteration counts do not depend on the grid, while in raw node
coordinates the conditioning degrades like N^2 with grid refinement.  One
line search serves every step: halvings from the unit step, tested by
Armijo while the predicted decrease is above float resolution and by a
shrinking gradient below it.  When the quasi-Newton direction fails, the
memory is cleared and the step retried once along the negative gradient.

The outer loop stops at a feasible iterate whose Lagrangian gradient is
below the inner tolerance and whose multipliers lie in the normal cones
(the complementarity residual of the dual update is below feas_tol).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import problem as pb
from .convex import ConvexSetError, project, project_normal_cone
from .funspace import CellPath, Grid, Trajectory, ac_norm, tail_sums


class SolverError(RuntimeError):
    def __init__(self, message: str, snapshot: np.ndarray | None = None):
        super().__init__(message)
        self.snapshot = snapshot


class UnboundedError(SolverError):
    pass


_OBJECTIVE_FLOOR = -1e12
_ARMIJO_C = 1e-4
_MEMORY = 8  # L-BFGS pairs kept within one inner minimization
_CURVATURE_SKIP = 1e-12  # a pair with s.y <= this * |s| |y| is not stored


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
        if not (0 < self.penalty_rho < np.inf and 1.0 <= self.penalty_growth < np.inf):
            raise ValueError(
                "penalty parameters must be finite and positive (growth >= 1)")
        if not 0 < self.inner_tol < np.inf:
            raise ValueError("inner tolerance must be finite and positive")
        if not 1e-12 <= self.feas_tol < np.inf:
            raise ValueError("feasibility tolerance must be finite and at least 1e-12")


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
        # L-BFGS pairs (s, y) in the stacked coordinates of _evaluate, as ring
        # buffers: the _pairs slots before _head, newest first
        self._S = np.empty((_MEMORY, grid.N + 1, P.n))
        self._Y = np.empty_like(self._S)
        self._rho = np.empty(_MEMORY)
        self._head = 0
        self._forget()

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

    # -- descent in the curve metric ---------------------------------------

    def _evaluate(self, X: np.ndarray) -> tuple[float, np.ndarray]:
        """Augmented value and its gradient in the curve metric at X: the
        tail sums of the node gradient are its (x(0), cell velocity)
        coordinates, stacked as one (N + 1, n) array, for the metric
        <a, b> = a_0.b_0 + h sum_j a_j.b_j, in which gradient norms do not
        depend on the grid."""
        F, grad = self.aug_value_and_grad(X)
        return F, tail_sums(grad)

    def _dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Curve-metric inner product of two arrays stacked as by _evaluate."""
        return float(a[0] @ b[0]) + self.grid.h * float(
            np.einsum("ki,ki->", a[1:], b[1:]))

    def _apply_step(self, X: np.ndarray, D: np.ndarray, alpha: float) -> np.ndarray:
        """The node array at (x(0), velocities) of X plus alpha * D."""
        h = self.grid.h
        out = np.empty_like(X)
        out[0] = X[0] + alpha * D[0]
        out[1:] = out[0] + h * np.cumsum(np.diff(X, axis=0) / h + alpha * D[1:], axis=0)
        return out

    def _forget(self):
        """Empty the L-BFGS memory."""
        self._pairs = 0
        self._gamma = 1.0

    def _remember(self, D: np.ndarray, alpha: float, R_new: np.ndarray,
                  R: np.ndarray):
        """Store the pair s = alpha * D, y = R_new - R in the ring buffers,
        over the oldest one, unless its curvature s.y is not clearly
        positive."""
        y = R_new - R
        sy, yy = alpha * self._dot(D, y), self._dot(y, y)
        if not sy > _CURVATURE_SKIP * alpha * np.sqrt(self._dot(D, D) * yy):
            return
        i = self._head
        np.multiply(D, alpha, out=self._S[i])
        self._Y[i] = y
        self._rho[i] = 1.0 / sy
        self._gamma = sy / yy
        self._head = (i + 1) % _MEMORY
        self._pairs = min(self._pairs + 1, _MEMORY)

    def _lbfgs_direction(self, R: np.ndarray) -> np.ndarray:
        """-H R for the L-BFGS inverse Hessian H of the stored pairs, by the
        two-loop recursion in the curve metric; -R with no pairs stored."""
        q = -R
        newest_first = [(self._head - 1 - k) % _MEMORY for k in range(self._pairs)]
        alphas = []
        for i in newest_first:
            a = self._rho[i] * self._dot(self._S[i], q)
            q -= a * self._Y[i]
            alphas.append(a)
        q *= self._gamma
        for i, a in zip(newest_first[::-1], alphas[::-1]):
            q += (a - self._rho[i] * self._dot(self._Y[i], q)) * self._S[i]
        return q

    def _line_search(self, X: np.ndarray, F: float, R: np.ndarray,
                     D: np.ndarray, plateau: float):
        """Halve from the unit step along D to (alpha, trial, *_evaluate(trial))
        or None.  The unit trial comes with its gradient, so an accepted unit
        step costs one evaluation.  While the predicted decrease alpha |<R, D>|
        exceeds plateau, a value-only Armijo test decides; below it values are
        float noise, and the first of 8 trials that shrinks |R|^2 to 0.995 of
        itself passes."""
        slope = self._dot(R, D)
        if not slope < 0:
            return None
        trial = self._apply_step(X, D, 1.0)
        F_t, R_t = self._evaluate(trial)
        if F_t <= F + _ARMIJO_C * slope:
            return 1.0, trial, F_t, R_t
        alpha = 0.5
        while alpha * -slope > plateau:
            trial = self._apply_step(X, D, alpha)
            if self.aug_value(trial) <= F + _ARMIJO_C * alpha * slope:
                return (alpha, trial, *self._evaluate(trial))
            alpha *= 0.5
        target = 0.995 * self._dot(R, R)
        for _ in range(8):
            trial = self._apply_step(X, D, alpha)
            F_t, R_t = self._evaluate(trial)
            if self._dot(R_t, R_t) <= target:
                return alpha, trial, F_t, R_t
            alpha *= 0.5
        return None

    def inner_minimize(self):
        """L-BFGS on the augmented objective in the curve metric.  A step
        the quasi-Newton direction cannot make clears the memory and is
        retried once along -R, the direction of an empty memory."""
        cfg = self.cfg
        X = self.X
        F, R = self._evaluate(X)
        self._forget()
        eps = float(np.finfo(float).eps)
        for _ in range(cfg.inner_max_steps):
            if F <= _OBJECTIVE_FLOOR:
                raise UnboundedError(
                    "unbounded below at this discretization", snapshot=X.copy()
                )
            if np.sqrt(self._dot(R, R)) <= cfg.inner_tol:
                break
            # below this scale an Armijo decrease is not representable in
            # doubles
            plateau = 16.0 * eps * (1.0 + abs(F))
            D = self._lbfgs_direction(R)
            step = self._line_search(X, F, R, D, plateau)
            if step is None and self._pairs:
                self._forget()
                D = -R
                step = self._line_search(X, F, R, D, plateau)
            if step is None:
                break  # true stationarity floor for this arithmetic
            alpha, X, F, R_new = step
            self._remember(D, alpha, R_new, R)
            R = R_new
        self.X = self.point = X

    def complementarity(self) -> float:
        """h sum_k |dW_k| + |dE| of the shifted residuals at X: zero exactly
        when the image is feasible and mu, s lie in its normal cones."""
        dW, dE = self._shifted_residuals(self.X)
        return (self.grid.h * float(np.linalg.norm(dW, axis=1).sum())
                + float(np.linalg.norm(dE)))

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
        R = tail_sums(self._lagrangian_gradient(self.s))
        return self.value(self.X), vdef, edef, float(np.sqrt(self._dot(R, R)))


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
            if (vdef + edef <= cfg.feas_tol and stat <= cfg.inner_tol
                    and state.complementarity() <= cfg.feas_tol):
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
