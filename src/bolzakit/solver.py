"""Direct transcription and an augmented-Lagrangian solver.

The problem is discretized on a uniform grid and solved as

    min  J_h(x)   s.t.  w_k(x) := v_k + g(t_k, x_k) in Omega1  (each cell)
                        (x_0, x_N) in Omega2

by an augmented-Lagrangian method.  With the image shifted by the duals,
Z = (w + mu/rho, e + s/rho), and its residual R = Z - proj(Z), the inner
loop minimizes J_h + rho/2 |R|^2 in x (the slacks are the exact
projections proj(Z)), and the dual update is (mu, s) <- rho R, the same as
the ascent step mu + rho (w - proj(Z)).  The penalty rho grows by
penalty_growth after every outer iteration that ends infeasible.  Cell
multipliers are kept as densities (the dual pairing is sum_k h <mu_k, w_k>),
so mu_k approximates a multiplier function value rather than an h-scaled
impulse.

The inner loop is semismooth Newton, the inner step of SSNAL (Li, Sun &
Toh, SIAM J. Optim. 28, 2018), in node coordinates.  Each step solves
(H + tau M) D = -G for the node gradient G of the augmented objective:
H is its generalized Hessian (the cost's second derivatives, the drift's
weighted by the shifted multipliers, and I - dproj of each set for the
penalty), M is the curve metric <a, b> = a_0.b_0 + h sum_j a'_j.b'_j in
node coordinates.  Both are block tridiagonal with n x n blocks (plus a
corner block when the endpoint data couple x(0) and x(T)), and blocktri
solves the system by cyclic reduction.  The shift tau starts at 0 and
grows only when a pivot is not positive; as it grows, D tends to the
curve-metric gradient step, in which gradient norms and iteration counts
do not depend on the grid.  One line search serves every step: halvings
from the unit step, tested by Armijo while the predicted decrease is
above float resolution and by a shrinking gradient below it.

An iterate is evaluated once: the Hessian, the dual update and the
outer measurement read that evaluation.  The outer loop stops at a
feasible iterate whose Lagrangian gradient is below the inner tolerance
and whose multipliers lie in the normal cones (the complementarity
residual of the dual update is below feas_tol).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blocktri
from . import problem as pb
from .convex import ConvexSetError, project, project_normal_cone, residual_jacobian
from .funspace import CellPath, Grid, Trajectory, ac_norm, row_norms, tail_sums


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
    initial value and the cell velocities: (value, node gradient, Hessian).
    The Hessian is constant: the curve metric."""
    grid = x_ref.grid
    h = grid.h
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

    def hess(blocks, X: np.ndarray):
        _add_curve_metric(blocks, grid, 1.0)

    return value, grad, hess


def _add_curve_metric(blocks, grid: Grid, weight: float):
    """Add weight times the curve metric <a, b> = a_0.b_0 + h sum_j
    a'_j.b'_j to node blocks."""
    n = blocks[2].shape[0]
    ends = np.zeros((2 * n, 2 * n))
    ends[:n, :n] = weight * np.eye(n)
    pb.add_cell_form(blocks, grid, vv=weight * np.eye(n)[None], ends=ends)


# ---------------------------------------------------------------------------
# ALM core


class _AlmState:
    """ALM iterate for min value(X) subject to the problem's constraints;
    ``value`` and ``grad`` are the objective and its node gradient, and
    ``hess(blocks, X)`` adds its Hessian to node blocks."""

    def __init__(self, P: pb.ProblemSpec, cfg: SolverConfig, grid: Grid,
                 value, grad, hess, X0: np.ndarray):
        self.P = P
        self.cfg = cfg
        self.grid = grid
        self.value = value
        self.grad = grad
        self.hess = hess
        self.X = X0.copy()
        # the node array under evaluation: the snapshot of a domain error
        self.point = self.X
        self.mu = np.zeros((grid.N, P.n))
        self.s = np.zeros(2 * P.n)
        self.rho = cfg.penalty_rho

    # -- augmented objective ----------------------------------------------

    def _shifted(self, X: np.ndarray):
        """((ZW, ZE), (RW, RE)): the constraint image shifted by the duals,
        Z = (w + mu/rho, e + s/rho), and its residual R = Z - proj(Z), per
        cell and for the endpoint pair.  The penalty is rho/2 |R|^2 and the
        dual update is (mu, s) <- rho R."""
        W, E = pb.constraint_image(self.P, self.grid, X)
        ZW = W + self.mu / self.rho
        ZE = E + self.s / self.rho
        return (ZW, ZE), (ZW - project(self.P.omega1, ZW),
                          ZE - project(self.P.omega2, ZE))

    def _penalty(self, RW: np.ndarray, RE: np.ndarray) -> float:
        return 0.5 * self.rho * (self.grid.h * float(np.einsum("ki,ki->", RW, RW))
                                 + float(RE @ RE))

    def aug_value(self, X: np.ndarray) -> float:
        self.point = X
        base = self.value(X)
        return base + self._penalty(*self._shifted(X)[1])

    def aug_value_and_grad(self, X: np.ndarray):
        """(augmented value, its node gradient, cost, _shifted(X)) at X."""
        self.point = X
        J = self.value(X)
        shifted = self._shifted(X)
        RW, RE = shifted[1]
        G = self.grad(X) + self.rho * pb.constraint_adjoint(self.P, self.grid,
                                                            X, RW, RE)
        return J + self._penalty(RW, RE), G, J, shifted

    def _aug_hessian(self, X: np.ndarray, shifted):
        """Generalized Hessian of the augmented objective at X, with shifted
        image ``shifted``, as node blocks (diagonal, upper, corner).  The
        penalty is rho/2 times the squared distance of the shifted image
        from the sets, whose generalized Hessian is I - dproj."""
        rho = self.rho
        blocks = pb.node_blocks(self.grid, self.P.n)
        self.hess(blocks, X)
        (ZW, ZE), (RW, _) = shifted
        JW = residual_jacobian(self.P.omega1, ZW)
        JW *= rho
        JE = rho * residual_jacobian(self.P.omega2, ZE[None])[0]
        pb.add_constraint_hessian(blocks, self.P, self.grid, X, rho * RW, JW, JE)
        return blocks

    # -- semismooth Newton -------------------------------------------------

    def _metric_norm(self, G: np.ndarray) -> float:
        """Norm of a node gradient G in the curve metric <a, b> = a_0.b_0 +
        h sum_j a'_j.b'_j: the tail sums of G are its (x(0), velocity)
        coordinates, and in this norm gradients do not depend on the grid."""
        R = tail_sums(G)
        return float(np.sqrt(
            R[0] @ R[0] + self.grid.h * np.einsum("ki,ki->", R[1:], R[1:])))

    def _newton_direction(self, X: np.ndarray, G: np.ndarray, shifted, tau: float):
        """(D, tau): the solution of (H + tau M) D = -G for the generalized
        Hessian H at X and the curve metric M, both block tridiagonal in
        node coordinates, with the smallest tau >= the given one on the
        ladder 0, 1e-6, 1e-5, ... for which every pivot is positive.  As
        tau grows, D tends to the curve-metric gradient step -M^-1 G / tau.
        D is None when no tau up to 1e12 helps (a Hessian that is not
        finite)."""
        blocks = self._aug_hessian(X, shifted)
        shift = 0.0  # tau M already added to the blocks
        while tau <= 1e12:
            if tau > shift:
                _add_curve_metric(blocks, self.grid, tau - shift)
                shift = tau
            try:
                return blocktri.solve(blocks[0], blocks[1], -G, blocks[2]), tau
            except np.linalg.LinAlgError:
                tau = max(10.0 * tau, 1e-6)
        return None, tau

    def _line_search(self, X: np.ndarray, F: float, G: np.ndarray,
                     D: np.ndarray, plateau: float):
        """Halve from the unit step along D to (trial, *aug_value_and_grad
        (trial)) or None.  While the predicted decrease alpha |<G, D>|
        exceeds plateau, an Armijo test decides, with the gradient for the
        unit trial (an accepted unit step costs one evaluation) and on
        values alone below it.  Below plateau values are float noise, and
        the first of 8 trials that shrinks the gradient's metric norm
        squared to 0.995 of itself passes."""
        slope = float(np.einsum("ki,ki->", G, D))
        if not slope < 0:
            return None
        alpha = 1.0
        if -slope > plateau:
            trial = X + D
            evaluation = self.aug_value_and_grad(trial)
            if evaluation[0] <= F + _ARMIJO_C * slope:
                return (trial, *evaluation)
            alpha = 0.5
            while alpha * -slope > plateau:
                trial = X + alpha * D
                if self.aug_value(trial) <= F + _ARMIJO_C * alpha * slope:
                    return (trial, *self.aug_value_and_grad(trial))
                alpha *= 0.5
        target = 0.995 * self._metric_norm(G) ** 2
        for _ in range(8):
            trial = X + alpha * D
            evaluation = self.aug_value_and_grad(trial)
            if self._metric_norm(evaluation[1]) ** 2 <= target:
                return (trial, *evaluation)
            alpha *= 0.5
        return None

    def inner_minimize(self):
        """Semismooth Newton on the augmented objective (the inner step of
        SSNAL, Li, Sun & Toh, SIAM J. Optim. 28, 2018), stopped when the
        gradient's curve-metric norm reaches inner_tol.  The shift tau of
        the Newton system starts at 0, grows only when a pivot is not
        positive, and falls tenfold after each accepted step; returns the
        last iterate's J, G and R."""
        cfg = self.cfg
        X = self.X
        F, G, J, shifted = self.aug_value_and_grad(X)
        eps = float(np.finfo(float).eps)
        tau = 0.0
        for _ in range(cfg.inner_max_steps):
            if F <= _OBJECTIVE_FLOOR:
                raise UnboundedError(
                    "unbounded below at this discretization", snapshot=X.copy()
                )
            if self._metric_norm(G) <= cfg.inner_tol:
                break
            # below this scale an Armijo decrease is not representable in
            # doubles
            plateau = 16.0 * eps * (1.0 + abs(F))
            D, tau = self._newton_direction(X, G, shifted, tau)
            step = None if D is None else self._line_search(X, F, G, D, plateau)
            if step is None:
                break  # true stationarity floor for this arithmetic
            X, F, G, J, shifted = step
            tau = 0.1 * tau if tau > 1e-6 else 0.0
        self.X = self.point = X
        return J, G, shifted[1]

    def complementarity(self) -> float:
        """h sum_k |mu+_k - mu_k| / rho + |s+ - s| / rho for the dual update
        (mu+, s+) = rho R at X: zero exactly when the image is feasible and
        mu, s lie in its normal cones."""
        RW, RE = self._shifted(self.X)[1]
        return (self.grid.h * float(row_norms(RW - self.mu / self.rho).sum())
                + float(np.linalg.norm(RE - self.s / self.rho)))

    def update_duals(self, RW: np.ndarray, RE: np.ndarray):
        self.mu = self.rho * RW
        self.s = self.rho * RE

    def initialize_endpoint_duals(self) -> np.ndarray:
        """Least-squares endpoint multipliers, projected onto the normal
        cone at the projected endpoint pair; returns the Lagrangian
        gradient at (X, 0, s).  At a stationary warm start with inactive
        cell constraints it vanishes, so a solve started at an optimum
        converges in one outer iteration."""
        G = self.grad(self.X)  # the Lagrangian gradient at mu = 0, s = 0
        _, E = pb.constraint_image(self.P, self.grid, self.X)
        self.s = project_normal_cone(self.P.omega2, project(self.P.omega2, E),
                                     -np.concatenate([G[0], G[-1]]))
        G[[0, -1]] += self.s.reshape(2, -1)
        return G

    def measure(self, J: float, G: np.ndarray) -> tuple[float, float, float, float]:
        """(objective, velocity defect, endpoint defect, stationarity) of
        the current iterate of cost J; stationarity is the metric norm of
        the plain-Lagrangian gradient G at (X, mu, s)."""
        vdef, edef = pb.feasibility_residual(self.P, Trajectory(self.grid, self.X))
        return J, vdef, edef, self._metric_norm(G)


def _default_init(P: pb.ProblemSpec, grid: Grid) -> np.ndarray:
    """Straight line between the halves of the projected zero endpoint pair."""
    z0 = project(P.omega2, np.zeros(2 * P.n))
    a, b = z0[: P.n], z0[P.n :]
    lam = (grid.nodes() / grid.T)[:, None]
    return (1.0 - lam) * a + lam * b


def _run_alm(P: pb.ProblemSpec, cfg: SolverConfig, grid: Grid, value, grad,
             hess, X0: np.ndarray):
    """Minimize value(X) (node gradient grad(X), Hessian hess(X)) over the
    constraints of P from X0.

    Each iterate is measured once.  Returns the final state, the history
    rows, whether the run converged, and the final iterate's measurement
    (objective, velocity defect, endpoint defect, stationarity).  An
    expression domain error or a failed projection becomes a SolverError
    whose snapshot is the node array whose evaluation failed.
    """
    state = _AlmState(P, cfg, grid, value, grad, hess, X0)
    history = []
    converged = False
    try:
        objective, vdef, edef, stat = state.measure(
            state.value(state.X), state.initialize_endpoint_duals())
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
            J, G, R = state.inner_minimize()
            state.update_duals(*R)
            objective, vdef, edef, stat = state.measure(J, G)
            del G, R  # no array of this iterate outlives its measurement
            if vdef + edef > cfg.feas_tol:
                state.rho *= cfg.penalty_growth
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
        lambda blocks, X: pb.add_cost_hessian(blocks, P, grid, X), X0,
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
    state, _, converged, _ = _run_alm(
        P, cfg, grid, *_restore_objective(x), x.values.copy())
    y = Trajectory(grid, state.X)
    return RestoreResult(y=y, ac_gap=ac_norm(y - x), converged=converged)
