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

Each point's cost, cost gradient and constraint image are computed once.
The Hessian, the dual update, the outer measurement and the
complementarity test read the evaluation of their iterate.  A shorter
step that Armijo accepts on its value adds only the cost gradient and
the adjoint.  The next inner loop starts from the last iterate's cost,
cost gradient and image: only the shifted residual, the penalty and the
adjoint depend on the new duals.  The outer loop stops at a feasible
iterate whose Lagrangian gradient is below the inner tolerance and whose
multipliers lie in the normal cones (the complementarity residual of the
dual update is below feas_tol).

One ALM solves B independent copies of the problem at once: node arrays
carry a leading copy axis, the objective is the sum over the copies, and
the Newton system is the copies' systems side by side.  The copies share
rho (it grows when any copy ends an outer iteration infeasible), the step
length and the stops: the inner loop stops when every copy's gradient is
below inner_tol, the outer loop when every copy passes the stop test at
the same iterate.  A copy's converged flag is its own test at the last
tested iterate.  solve is the one-copy case; restore_feasibility restores
many curves in one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blocktri
from . import problem as pb
from .convex import ConvexSetError, project, project_normal_cone, residual_jacobian
from .funspace import CellPath, Grid, Trajectory, _dots, ac_norms, row_norms, tail_sums


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
    penalty_rho: float = 100.0
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


def _restore_objective(grid: Grid, X_ref: np.ndarray):
    """Half squared deviation from reference curves X_ref (B, N+1, n),
    measured on the initial value and the cell velocities and summed over
    the copies: (value, node gradient, Hessian).  The Hessian is constant:
    the curve metric."""
    h = grid.h
    x0_ref = X_ref[:, 0]
    v_ref = np.diff(X_ref, axis=1) / h

    def value(X: np.ndarray) -> float:
        d0 = X[:, 0] - x0_ref
        dv = np.diff(X, axis=1) / h - v_ref
        return float(0.5 * np.vdot(d0, d0) + 0.5 * h * np.einsum("bki,bki->", dv, dv))

    def grad(X: np.ndarray) -> np.ndarray:
        dv = np.diff(X, axis=1) / h - v_ref
        return pb._scatter(grid, 0.0, dv, X[:, 0] - x0_ref, 0.0)

    def hess(blocks, X: np.ndarray):
        _add_curve_metric(blocks, grid, 1.0)

    return value, grad, hess


def _add_curve_metric(blocks, grid: Grid, weight: float):
    """Add weight times the curve metric <a, b> = a_0.b_0 + h sum_j
    a'_j.b'_j to the node blocks of every copy."""
    n = blocks[2].shape[0]
    ends = np.zeros((2 * n, 2 * n))
    ends[:n, :n] = weight * np.eye(n)
    pb.add_cell_form(blocks, grid, vv=weight * np.eye(n)[None, None], ends=ends)


def _snapshot(X: np.ndarray) -> np.ndarray:
    """The node array of an error: one copy without its copy axis."""
    return X[0].copy() if len(X) == 1 else X.copy()


# ---------------------------------------------------------------------------
# ALM core


class _AlmState:
    """ALM iterate for min value(X) subject to the problem's constraints,
    for B copies at once: X is (B, N+1, n), mu and the image W (B, N, n),
    s and the image E (B, 2n), the problem kernels' layout.
    ``value`` is the objective summed over the copies, ``grad`` its node
    gradient, and ``hess(blocks, X)`` adds its Hessian to node blocks; each
    copy's objective depends on that copy alone.  ``grid`` is one copy's
    grid."""

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
        # (cost, constraint image, cost gradient) at X while known: the
        # inner loop takes them from here and leaves its last iterate's, so
        # no caller's reference keeps them alive through a Newton solve
        self.known = None
        self.mu = np.zeros((len(X0), grid.N, P.n))
        self.s = np.zeros((len(X0), 2 * P.n))
        self.rho = cfg.penalty_rho

    # -- augmented objective ----------------------------------------------

    def _shifted(self, W: np.ndarray, E: np.ndarray):
        """(RW, RE): for the constraint image (W, E) shifted by the duals,
        Z = (w + mu/rho, e + s/rho), its residual R = Z - proj(Z), per cell
        and for the endpoint pair.  The penalty is rho/2 |R|^2 and the dual
        update is (mu, s) <- rho R."""
        ZW = W + self.mu / self.rho
        ZE = E + self.s / self.rho
        PW = project(self.P.omega1, ZW.reshape(-1, self.P.n)).reshape(ZW.shape)
        return ZW - PW, ZE - project(self.P.omega2, ZE)

    def _penalty(self, RW: np.ndarray, RE: np.ndarray) -> float:
        return 0.5 * self.rho * (self.grid.h * float(np.einsum("bki,bki->", RW, RW))
                                 + float(np.vdot(RE, RE)))

    def _augment(self, J: float, image):
        """(augmented value, J, (image, R)) at a point of cost J and
        constraint image ``image``: R is the image's shifted residual
        _shifted(W, E)."""
        R = self._shifted(*image)
        return J + self._penalty(*R), J, (image, R)

    def aug_value(self, X: np.ndarray):
        """(augmented value, cost, (image, R)) at X."""
        self.point = X
        return self._augment(self.value(X), pb.constraint_image(self.P, self.grid, X))

    def aug_value_and_grad(self, X: np.ndarray, value=None, grad_J=None):
        """(augmented value, its node gradient, cost, (image, R), cost
        gradient) at X: the constraint image (W, E) and its shifted residual
        _shifted(W, E).  What is known at X is passed and not computed
        again: ``value``, aug_value(X) under the current duals, and
        ``grad_J``, the cost gradient."""
        self.point = X
        if value is None:
            value = self._augment(self.value(X),
                                  pb.constraint_image(self.P, self.grid, X))
        F, J, (image, R) = value
        if grad_J is None:
            grad_J = self.grad(X)
        G = grad_J + self.rho * pb.constraint_adjoint(self.P, self.grid, X, *R)
        return F, G, J, (image, R), grad_J

    def _aug_hessian(self, X: np.ndarray, constraint):
        """Generalized Hessian of the augmented objective at X, with image
        and shifted residual ``constraint`` = ((W, E), R), as node blocks
        (diagonal, upper, corner) per copy.  The penalty is rho/2 times the
        squared distance of the shifted image Z from the sets, whose
        generalized Hessian is I - dproj at Z."""
        rho = self.rho
        blocks = pb.node_blocks(self.grid, self.P.n, len(X))
        self.hess(blocks, X)
        (W, E), (RW, _) = constraint
        ZW = W + self.mu / rho
        JW = residual_jacobian(self.P.omega1, ZW.reshape(-1, self.P.n))
        JW = JW.reshape(*ZW.shape, -1)
        JW *= rho
        JE = rho * residual_jacobian(self.P.omega2, E + self.s / rho)
        pb.add_constraint_hessian(blocks, self.P, self.grid, X, rho * RW, JW, JE)
        return blocks

    # -- semismooth Newton -------------------------------------------------

    def _metric_norms(self, G: np.ndarray) -> np.ndarray:
        """Norm of each copy's node gradient G in the curve metric <a, b> =
        a_0.b_0 + h sum_j a'_j.b'_j: the tail sums of G are its (x(0),
        velocity) coordinates, and in this norm gradients do not depend on
        the grid."""
        R = tail_sums(G)
        return np.sqrt(_dots(R[:, 0])
                       + self.grid.h * np.einsum("bki,bki->b", R[:, 1:], R[:, 1:]))

    def _newton_direction(self, X: np.ndarray, G: np.ndarray, constraint, tau: float):
        """(D, tau): the solution of (H + tau M) D = -G for the generalized
        Hessian H at X and the curve metric M, both block tridiagonal in
        node coordinates, with the smallest tau >= the given one on the
        ladder 0, 1e-6, 1e-5, ... for which every pivot of every copy is
        positive.  As tau grows, D tends to the curve-metric gradient step
        -M^-1 G / tau.  D is None when no tau up to 1e12 helps (a Hessian
        that is not finite)."""
        blocks = self._aug_hessian(X, constraint)
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
        (trial)) or None; one step length serves every copy.  While the
        predicted decrease alpha |<G, D>| exceeds plateau, an Armijo test
        decides, with the gradient for the unit trial (an accepted unit
        step costs one evaluation) and on values alone below it (an
        accepted shorter step adds its gradient to its value).  Below
        plateau values are float noise, and the first of 8 trials that
        shrinks the gradient's metric norm squared to 0.995 of itself
        passes."""
        slope = float(np.einsum("bki,bki->", G, D))
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
                value = self.aug_value(trial)
                if value[0] <= F + _ARMIJO_C * alpha * slope:
                    return (trial, *self.aug_value_and_grad(trial, value))
                alpha *= 0.5
        target = 0.995 * (self._metric_norms(G) ** 2).sum()
        for _ in range(8):
            trial = X + alpha * D
            evaluation = self.aug_value_and_grad(trial)
            if (self._metric_norms(evaluation[1]) ** 2).sum() <= target:
                return (trial, *evaluation)
            alpha *= 0.5
        return None

    def inner_minimize(self):
        """Semismooth Newton on the augmented objective (the inner step of
        SSNAL, Li, Sun & Toh, SIAM J. Optim. 28, 2018), stopped when every
        copy's gradient has curve-metric norm at most inner_tol.  The shift
        tau of the Newton system starts at 0, grows only when a pivot is
        not positive, and falls tenfold after each accepted step.  The
        cost, image and cost gradient at the start are self.known when
        known.  Returns the last iterate's J, G and (image, R), and leaves
        its cost, image and cost gradient in self.known."""
        cfg = self.cfg
        X = self.X
        known, self.known = self.known, None
        F, G, J, constraint, grad_J = (
            self.aug_value_and_grad(X) if known is None
            else self.aug_value_and_grad(X, self._augment(*known[:2]), known[2]))
        del known
        eps = float(np.finfo(float).eps)
        tau = 0.0
        for _ in range(cfg.inner_max_steps):
            if F <= _OBJECTIVE_FLOOR:
                raise UnboundedError(
                    "unbounded below at this discretization", snapshot=_snapshot(X)
                )
            if self._metric_norms(G).max() <= cfg.inner_tol:
                break
            # below this scale an Armijo decrease is not representable in
            # doubles
            plateau = 16.0 * eps * (1.0 + abs(F))
            grad_J = step = None  # not kept through the Newton solve
            D, tau = self._newton_direction(X, G, constraint, tau)
            step = None if D is None else self._line_search(X, F, G, D, plateau)
            if step is None:
                break  # true stationarity floor for this arithmetic
            X, F, G, J, constraint, grad_J = step
            tau = 0.1 * tau if tau > 1e-6 else 0.0
        self.X = self.point = X
        if grad_J is None:  # no step from X: its cost gradient was dropped
            grad_J = self.grad(X)
        self.known = (J, constraint[0], grad_J)
        return J, G, constraint

    def complementarity(self, image) -> np.ndarray:
        """h sum_k |mu+_k - mu_k| / rho + |s+ - s| / rho per copy, for the
        dual update (mu+, s+) = rho R at X of constraint image ``image``:
        zero exactly when the image is feasible and mu, s lie in its normal
        cones."""
        RW, RE = self._shifted(*image)
        return (self.grid.h * row_norms(RW - self.mu / self.rho).sum(axis=1)
                + np.sqrt(_dots(RE - self.s / self.rho)))

    def update_duals(self, RW: np.ndarray, RE: np.ndarray):
        self.mu = self.rho * RW
        self.s = self.rho * RE

    def initialize_endpoint_duals(self, G: np.ndarray, E: np.ndarray) -> np.ndarray:
        """Least-squares endpoint multipliers, projected onto the normal
        cone at the projected endpoint pair E, from the objective's gradient
        G at X; returns the Lagrangian gradient at (X, 0, s).  At a
        stationary warm start with inactive cell constraints it vanishes, so
        a solve started at an optimum converges in one outer iteration."""
        ends = -np.concatenate([G[:, 0], G[:, -1]], axis=1)
        self.s = np.array([project_normal_cone(self.P.omega2, z, xi) for z, xi
                           in zip(project(self.P.omega2, E), ends)])
        L = G.copy()
        L[:, [0, -1]] += self.s.reshape(len(G), 2, -1)
        return L

    def measure(self, J: float, G: np.ndarray, image):
        """(objective, velocity defects, endpoint defects, stationarities)
        of the current iterate of cost J and constraint image ``image``, the
        last three per copy; stationarity is the metric norm of the
        plain-Lagrangian gradient G at (X, mu, s)."""
        vdef, edef = pb.feasibility_defects(self.P, self.grid, *image)
        return J, vdef, edef, self._metric_norms(G)


def _default_init(P: pb.ProblemSpec, grid: Grid) -> np.ndarray:
    """Straight line between the halves of the projected zero endpoint pair."""
    z0 = project(P.omega2, np.zeros(2 * P.n))
    a, b = z0[: P.n], z0[P.n :]
    lam = (grid.nodes() / grid.T)[:, None]
    return (1.0 - lam) * a + lam * b


def _run_alm(P: pb.ProblemSpec, cfg: SolverConfig, grid: Grid, value, grad,
             hess, X0: np.ndarray):
    """Minimize value(X) (node gradient grad(X), Hessian hess(X)) over the
    constraints of P from the copies X0 (B, N+1, n).

    The copies share one penalty rho, which grows when any copy ends an
    outer iteration infeasible, and one stop: the loop ends when every
    copy passes the stop test at the same iterate.  A copy's converged
    flag is its own test at the last tested iterate.  Each iterate is
    measured once.  Returns the final state, the history rows (defects
    are the largest over the copies), the converged flags, and the final
    iterate's measurement (objective, velocity defects, endpoint defects,
    stationarities).  An expression domain error or a failed projection
    becomes a SolverError whose snapshot is the node array whose
    evaluation failed.
    """
    state = _AlmState(P, cfg, grid, value, grad, hess, X0)
    history = []
    try:
        J, G = state.value(state.X), state.grad(state.X)
        image = pb.constraint_image(P, grid, state.X)
        state.known = (J, image, G)
        objective, vdef, edef, stat = state.measure(
            J, state.initialize_endpoint_duals(G, image[1]), image)
        del G
        for outer in range(1, cfg.outer_iters + 1):
            history.append(
                {
                    "outer_iter": outer,
                    "objective": objective,
                    "velocity_defect": float(vdef.max()),
                    "endpoint_defect": float(edef.max()),
                    "rho": state.rho,
                }
            )
            converged = (vdef + edef <= cfg.feas_tol) & (stat <= cfg.inner_tol)
            if converged.any():
                converged &= state.complementarity(image) <= cfg.feas_tol
            if converged.all():
                break
            del image  # no array of an iterate outlives its last reader
            J, G, (image, R) = state.inner_minimize()
            state.update_duals(*R)
            objective, vdef, edef, stat = state.measure(J, G, image)
            del G, R
            if (vdef + edef > cfg.feas_tol).any():
                state.rho *= cfg.penalty_growth
    except pb.ex.ExprDomainError as err:
        raise SolverError(
            f"expression domain error: {err}", snapshot=_snapshot(state.point)
        ) from err
    except ConvexSetError as err:
        raise SolverError(
            f"projection failed: {err}", snapshot=_snapshot(state.point)
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
        lambda X: float(pb.cost(P, grid, X).sum()),
        lambda X: pb.cost_gradient(P, grid, X),
        lambda blocks, X: pb.add_cost_hessian(blocks, P, grid, X), X0[None],
    )
    n = P.n
    return SolveResult(
        x=Trajectory(grid, state.X[0]),
        mu=CellPath(grid, state.mu[0]),
        s1=state.s[0, :n].copy(),
        s2=state.s[0, n:].copy(),
        converged=bool(converged[0]),
        objective=objective,
        stationarity=float(stat[0]),
        velocity_defect=float(vdef[0]),
        endpoint_defect=float(edef[0]),
        history=history,
    )


# nodes restored in one ALM: the copies of a restoration run then take
# about the memory of one solve on a fine grid
_RESTORE_NODES = 2 ** 14


def restore_feasibility(
    P: pb.ProblemSpec, grid: Grid, X: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project each curve of the node arrays X (S, N+1, n) on ``grid``
    toward the feasible set: minimize half the squared deviation (initial
    value and velocities) over feasible curves.  Returns (Y, gaps,
    converged): the restored curves, their ac-norm gaps ac_norms(Y - X), an
    upper bound for each curve's ac-distance from the feasible set at this
    discretization, and the converged flags.

    Up to _RESTORE_NODES / (N + 1) curves (at least one) are restored as
    copies of one ALM.  A nonconverged restoration still returns its best
    curve, with converged False marking its gap unverified.
    """
    X = np.asarray(X, dtype=float)
    if (abs(grid.T - P.T) > 1e-12 * max(1.0, abs(P.T)) or X.ndim != 3
            or X.shape[1:] != (grid.N + 1, P.n) or not np.isfinite(X).all()):
        raise pb.ProblemError(
            f"curves to restore must be finite node arrays (S, {grid.N + 1}, "
            f"{P.n}) on the problem horizon {P.T}")
    copies = max(1, _RESTORE_NODES // (grid.N + 1))
    Y = np.empty_like(X)
    converged = np.zeros(len(X), dtype=bool)
    for start in range(0, len(X), copies):
        chunk = slice(start, start + copies)
        state, _, ok, _ = _run_alm(
            P, cfg, grid, *_restore_objective(grid, X[chunk]), X[chunk])
        Y[chunk], converged[chunk] = state.X, ok
    return Y, ac_norms(Y - X, grid.h), converged
