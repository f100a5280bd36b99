"""Bolza problem data and its reduction to cost / constraint-map form.

A ProblemSpec holds the terminal cost phi(x(0), x(T)), the running cost
theta(t, x, v), the drift g(t, x), the velocity constraint set (for
x' + g(t,x)) and the endpoint constraint set for (x(0), x(T)).  On a grid
the problem reduces to a finite-dimensional program: this module provides
the discrete cost and its node gradient, the constraint image (velocity
part and endpoints), the constraint linearization and its adjoint, and
the feasibility defects, each one kernel on node arrays: the interface
through which the solver, the certificate and the derivative check see
the transcription.  Both gradients (cost_gradient, constraint_adjoint)
are one _scatter, the transpose of the cell map _cells.  add_cost_hessian
and add_constraint_hessian assemble the second derivatives, per cell in
(x_k, v_k), in place into the block-tridiagonal node matrix of the
solver's Newton step.  The finite_* functions check curves given as data.

One layout runs through the module: node arrays (..., N+1, n), whose
leading axes are copies, give cell arrays (..., N, ...) and endpoint
pairs (..., 2n), and the expression programs run once on the cells of
all copies without flattening them.  So one solver run treats B
independent curves at once and estimate_lipschitz evaluates its sample
points in a few calls.  An output that is constant (a quadratic cost's
Hessian, an affine drift's Jacobian) keeps lead axes of length 1 and
broadcasts over the cells and copies.

Quadrature convention: cell integrands are evaluated at the left node in
(t, x) with the exact cell velocity, i.e. a rectangle rule that is
first-order accurate and keeps the discrete stationarity system aligned
cell-by-cell with the continuous optimality conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .convex import ConvexSet, distance
from .funspace import Grid, Trajectory, ac_dual_norm, ac_norms


class ProblemError(ValueError):
    pass


@dataclass
class ProblemSpec:
    """Data of one Bolza problem instance.

    lipschitz_ell optionally declares a Lipschitz modulus for the running
    cost in (x, v); when absent, callers that need one estimate it from
    the cost gradient (see estimate_lipschitz) and flag the provenance.
    """

    n: int
    T: float
    phi: ex.Expr
    theta: ex.Expr
    g: list
    omega1: ConvexSet
    omega2: ConvexSet
    lipschitz_ell: float | None = None

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
        if self.lipschitz_ell is not None and not 0 < self.lipschitz_ell < np.inf:
            raise ProblemError("declared Lipschitz modulus must be positive and finite")
        self._check_profile(self.theta, ex.PROFILE_RUNNING, "running cost")
        self._check_profile(self.phi, ex.PROFILE_TERMINAL, "terminal cost")
        for i, gi in enumerate(self.g):
            self._check_profile(gi, ex.PROFILE_DRIFT, f"drift component {i + 1}")
        # compiled programs: theta; theta_x then theta_v; g; g_x row-major;
        # phi; phi_x0 then phi_xT
        xs = [f"x{i}" for i in range(1, self.n + 1)]
        vs = [f"v{i}" for i in range(1, self.n + 1)]
        ends = [f"{e}_{i}" for e in ("x0", "xT") for i in range(1, self.n + 1)]
        self._theta_grad = ex.compile_program([ex.diff(self.theta, v) for v in xs + vs])
        self._phi_grad = ex.compile_program([ex.diff(self.phi, v) for v in ends])
        self._g_jac = ex.compile_program([ex.diff(gi, v) for gi in self.g for v in xs])
        self._theta = ex.compile_program([self.theta])
        self._g = ex.compile_program(self.g)
        self._phi = ex.compile_program([self.phi])
        self._hessians = None  # see _hessian_programs

    def _check_profile(self, e: ex.Expr, profile: str, what: str):
        legal = ex.legal_variables(profile, self.n)
        extra = ex.variables(e) - legal
        if extra:
            raise ProblemError(
                f"{what} uses variables {sorted(extra)} outside its profile"
            )

    # ---- vectorized expression evaluation over cells -------------------
    # Cell evaluations take cell times t (N,) and cell states X (..., N, n)
    # (and velocities V or weights M like X) and return arrays (..., N, ...);
    # the endpoint ones take rows x0, xT (..., n).  Leading axes are copies.

    def _run(self, program: ex.Program, lead: tuple, t, index=None,
             **blocks) -> np.ndarray:
        """Outputs of a program as the last axis of a (*lead, k) array, with
        t and the columns of each block bound to their names (x=X binds
        x1.., x0_=x0 binds x0_1..); t is None for the terminal cost.  An
        integer array ``index`` places output index[i] at out[..., i] of a
        (*lead, *index.shape) array instead, with lead axes of length 1,
        which broadcast over the cells and copies, when all those outputs
        are constants."""
        values = self._evaluate(program, t, **blocks)
        if index is None:
            index = np.arange(len(values))
        elif all(np.ndim(values[j]) == 0 for j in index.flat):
            lead = (1,) * len(lead)
        out = np.empty((*lead, *index.shape))
        for pos in np.ndindex(index.shape):
            out[(..., *pos)] = values[index[pos]]
        return out

    def _evaluate(self, program: ex.Program, t, **blocks) -> list:
        """The program's outputs, with names bound as in _run."""
        env = {"t": t}
        for prefix, block in blocks.items():
            for i in range(self.n):
                env[f"{prefix}{i + 1}"] = block[..., i]
        return ex.run_program(program, env)

    def theta_cells(self, t, X, V) -> np.ndarray:
        return self._run(self._theta, X.shape[:-1], t, x=X, v=V)[..., 0]

    def theta_grad_cells(self, t, X, V) -> tuple[np.ndarray, np.ndarray]:
        """(theta_x, theta_v) per cell, each a contiguous (..., N, n)
        array, so that the node scatters run over whole arrays."""
        values = self._evaluate(self._theta_grad, t, x=X, v=V)
        n = self.n
        halves = np.empty((2, *X.shape))
        for j, value in enumerate(values):
            halves[j // n, ..., j % n] = value
        return halves[0], halves[1]

    def g_cells(self, t, X) -> np.ndarray:
        return self._run(self._g, X.shape[:-1], t, x=X)

    def g_jacobian_cells(self, t, X) -> np.ndarray:
        """Drift Jacobians per cell, shape (..., N, n, n) with [..., k, i,
        j] = d g_i / d x_j, with lead axes of length 1 when constant (an
        affine drift)."""
        n = self.n
        index = np.arange(n * n).reshape(n, n)
        return self._run(self._g_jac, X.shape[:-1], t, index=index, x=X)

    def phi_value(self, x0, xT) -> np.ndarray:
        return self._run(self._phi, np.shape(x0)[:-1], None, x0_=x0, xT_=xT)[..., 0]

    def phi_gradients(self, x0, xT) -> tuple[np.ndarray, np.ndarray]:
        """(phi_x0, phi_xT), each (..., n)."""
        out = self._run(self._phi_grad, np.shape(x0)[:-1], None, x0_=x0, xT_=xT)
        return out[..., : self.n], out[..., self.n :]

    # ---- second derivatives, compiled on first use ---------------------

    def _hessian_programs(self):
        """Index matrices and programs of the distinct second derivatives:
        the upper triangles of theta's in (x, v) and phi's in (x0, xT),
        n(2n + 1) entries each, and of the x-Hessian of sum_i m_i g_i for
        weights bound to m1..mn.  An index matrix maps a pair of variables
        to its output.  Compiled on first use and kept on the instance:
        only the solver's Newton step reads them."""
        if self._hessians is None:
            n = self.n
            xs = [f"x{i}" for i in range(1, n + 1)]
            vs = [f"v{i}" for i in range(1, n + 1)]
            ends = [f"{e}_{i}" for e in ("x0", "xT") for i in range(1, n + 1)]
            weighted = ex.Const(0.0)
            for i, gi in enumerate(self.g):
                weighted = ex.Binary(
                    "add", weighted, ex.Binary("mul", ex.Var(f"m{i + 1}"), gi))
            self._hessians = (
                _second_derivatives(self.theta, xs + vs),
                _second_derivatives(self.phi, ends),
                _second_derivatives(weighted, xs),
            )
        return self._hessians

    def theta_hessian_cells(self, t, X, V):
        """(theta_xx, theta_xv, theta_vv) per cell, each (..., N, n, n),
        with lead axes of length 1 when all of them are constant; xv has x
        rows and v columns."""
        n = self.n
        index, program = self._hessian_programs()[0]
        blocks = np.stack([index[:n, :n], index[:n, n:], index[n:, n:]])
        out = self._run(program, X.shape[:-1], t, index=blocks, x=X, v=V)
        return out[..., 0, :, :], out[..., 1, :, :], out[..., 2, :, :]

    def phi_hessian(self, x0, xT) -> np.ndarray:
        """Hessian of phi in (x0, xT), shape (..., 2n, 2n), with lead axes
        of length 1 when constant."""
        index, program = self._hessian_programs()[1]
        return self._run(program, np.shape(x0)[:-1], None, index=index,
                         x0_=x0, xT_=xT)

    def g_hessian_cells(self, t, X, M) -> np.ndarray:
        """sum_i M_i d^2 g_i / dx^2 per cell for weights M like X, shape
        (..., N, n, n), with lead axes of length 1 when constant (an affine
        drift)."""
        index, program = self._hessian_programs()[2]
        return self._run(program, X.shape[:-1], t, index=index, x=X, m=M)


def _second_derivatives(e: ex.Expr, names: list) -> tuple[np.ndarray, ex.Program]:
    """(index, program): the program computes the upper triangle of the
    Hessian of e in the named variables, and index[a, b] is the output of
    the pair (a, b)."""
    d = len(names)
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    index = np.empty((d, d), dtype=np.intp)
    for j, (a, b) in enumerate(pairs):
        index[a, b] = index[b, a] = j
    first = [ex.diff(e, name) for name in names]
    return index, ex.compile_program([ex.diff(first[a], names[b]) for a, b in pairs])


def _check_grid(P: ProblemSpec, x: Trajectory):
    if x.n != P.n:
        raise ProblemError(f"trajectory dimension {x.n} != problem dimension {P.n}")
    if abs(x.grid.T - P.T) > 1e-12 * max(1.0, abs(P.T)):
        raise ProblemError(
            f"trajectory horizon {x.grid.T} != problem horizon {P.T}"
        )


# ---- kernels on node arrays ---------------------------------------------
# X has shape (..., N+1, n) on `grid`, its leading axes copies; cell arrays
# are (..., N, n) and endpoint pairs (..., 2n).  The kernels check nothing
# and accept non-finite values: the solver evaluates line-search trials with
# them, while a Trajectory rejects non-finite nodes, and the finite_*
# functions and require_finite reject non-finite values at curves given as
# data.


def _cells(grid: Grid, X: np.ndarray):
    """The cell quadrature points: left-node times (N,), left-node states
    and exact cell velocities (..., N, n) (the slice difference is np.diff
    without its per-call overhead).  Every cell evaluation of theta, g or
    their derivatives, and every linearization, reads its points here;
    _scatter is the transpose."""
    XL = X[..., :-1, :]
    return grid.cell_lefts(), XL, (X[..., 1:, :] - XL) / grid.h


def _scatter(grid: Grid, CX: np.ndarray, CV: np.ndarray, S0, ST) -> np.ndarray:
    """Transpose of _cells plus the endpoint pair: the node gradient, shape
    (..., N+1, n), of sum_k h (<CX_k, x_k> + <CV_k, v_k>) + <S0, x_0> +
    <ST, x_N> for cell arrays CX, CV (..., N, n) and endpoint rows S0, ST
    (..., n)."""
    out = np.zeros((*CV.shape[:-2], grid.N + 1, CV.shape[-1]))
    out[..., :-1, :] += grid.h * CX
    out[..., :-1, :] -= CV
    out[..., 1:, :] += CV
    out[..., 0, :] += S0
    out[..., -1, :] += ST
    return out


def cost(P: ProblemSpec, grid: Grid, X: np.ndarray) -> np.ndarray:
    """J_h = phi(x_0, x_N) + sum_k h * theta(t_k, x_k, v_k), per copy."""
    t, XL, V = _cells(grid, X)
    running = grid.h * P.theta_cells(t, XL, V).sum(axis=-1)
    return P.phi_value(X[..., 0, :], X[..., -1, :]) + running


def cost_gradient(P: ProblemSpec, grid: Grid, X: np.ndarray) -> np.ndarray:
    """Node gradient of J_h, shape (..., N+1, n)."""
    t, XL, V = _cells(grid, X)
    theta_x, theta_v = P.theta_grad_cells(t, XL, V)
    return _scatter(grid, theta_x, theta_v,
                    *P.phi_gradients(X[..., 0, :], X[..., -1, :]))


def constraint_image(
    P: ProblemSpec, grid: Grid, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(W, E): the velocity part w_k = v_k + g(t_k, x_k), shape (..., N, n),
    and the endpoint pair E = (x_0, x_N), shape (..., 2n)."""
    t, XL, V = _cells(grid, X)
    return V + P.g_cells(t, XL), np.concatenate([X[..., 0, :], X[..., -1, :]], axis=-1)


def constraint_derivative(
    P: ProblemSpec, grid: Grid, X: np.ndarray, U: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The constraint linearization at X applied to node arrays U like X:
    (DW, DE) with DW_k = u'_k + g_x(t_k, x_k) u_k, shape (..., N, n), and
    DE = (u_0, u_N), shape (..., 2n)."""
    t, XL, _ = _cells(grid, X)
    _, UL, DV = _cells(grid, U)
    DW = DV + np.einsum("...ij,...j->...i", P.g_jacobian_cells(t, XL), UL)
    return DW, np.concatenate([U[..., 0, :], U[..., -1, :]], axis=-1)


def constraint_adjoint(
    P: ProblemSpec, grid: Grid, X: np.ndarray, MU: np.ndarray, S: np.ndarray
) -> np.ndarray:
    """Transpose of constraint_derivative at X: the node gradient of
    sum_k h <MU_k, w_k(X)> + <S, (x_0, x_N)> for cell values MU (..., N,
    n) and endpoint vectors S (..., 2n)."""
    n = P.n
    t, XL, _ = _cells(grid, X)
    G = P.g_jacobian_cells(t, XL)
    return _scatter(grid, np.einsum("...ij,...i->...j", G, MU), MU,
                    S[..., :n], S[..., n:])


def finite_constraint_image(
    P: ProblemSpec, grid: Grid, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """constraint_image of curves given as data, per copy: ProblemError
    when the velocity part is not finite (a drift that overflows at the
    curve), naming the first such cell."""
    W, E = constraint_image(P, grid, X)
    require_finite(W, grid.cell_lefts(), "velocity part x' + g(t, x)", "cell",
                   "the drift overflows there")
    return W, E


def finite_cost(P: ProblemSpec, grid: Grid, X: np.ndarray) -> np.ndarray:
    """cost of curves given as data, per copy: ProblemError when it is not
    finite (a cost that overflows at the curve), naming the first cell
    whose running cost is not finite."""
    with np.errstate(all="ignore"):  # a sum that overflows is reported below
        J = cost(P, grid, X)
    if not np.isfinite(J).all():
        t, XL, V = _cells(grid, X)
        require_finite(P.theta_cells(t, XL, V)[..., None], t,
                       "running cost theta(t, x, v)", "cell",
                       "the cost overflows there")
        raise ProblemError("cost is non-finite: the terminal cost phi(x(0), x(T)) "
                           "or the sum over the cells overflows")
    return J


def finite_cost_gradient(P: ProblemSpec, grid: Grid, X: np.ndarray) -> np.ndarray:
    """cost_gradient of curves given as data, per copy: ProblemError when
    it is not finite (a cost that overflows at the curve), naming the first
    such node."""
    with np.errstate(all="ignore"):  # inf - inf in the scatter; reported below
        G = cost_gradient(P, grid, X)
    require_finite(G, grid.nodes(), "cost gradient", "node", "the cost overflows there")
    return G


def require_finite(rows: np.ndarray, times: np.ndarray, what: str, where: str,
                   cause: str):
    """ProblemError unless every row of rows (..., K, n) is finite, naming
    the first bad row k of any copy as ``where`` k at time times[k] (K,)."""
    bad = ~np.isfinite(rows).all(axis=-1)
    if bad.any():
        k = int(np.argmax(bad.reshape(-1))) % len(times)
        raise ProblemError(
            f"{what} is non-finite at {where} {k} (t = {times[k]:.6g}): {cause}")


def feasibility_defects(P: ProblemSpec, grid: Grid, W: np.ndarray, E: np.ndarray):
    """(velocity defect, endpoint defect) of the constraint image (W, E),
    per copy: the integrated distance of the velocity part from its
    constraint set and the Euclidean distance of the endpoint pair from
    its set."""
    cell_dist = distance(P.omega1, W.reshape(-1, P.n)).reshape(W.shape[:-1])
    return grid.h * cell_dist.sum(axis=-1), distance(P.omega2, E)


def node_blocks(grid: Grid, n: int, copies: int):
    """Zero block-tridiagonal matrices on the nodes of each copy, to be
    filled in place by add_cell_form: (diagonal, upper, corner) with blocks
    stored last, diagonal[:, :, b, k] at node k of copy b (n, n, B, N + 1),
    upper[:, :, b, k] coupling node k to node k + 1 (n, n, B, N), and the
    corner (n, n, B) coupling x_0 to x_N."""
    return (np.zeros((n, n, copies, grid.N + 1)),
            np.zeros((n, n, copies, grid.N)), np.zeros((n, n, copies)))


def add_cell_form(blocks, grid: Grid, xx=None, xv=None, vv=None, ends=None):
    """Add to node blocks, in place, the Hessian of sum_k h q_k + e per
    copy: q_k a quadratic form in (x_k, v_k) with (B, N, n, n) stacks xx,
    xv (x rows, v columns) and vv, each optional and (1, 1, n, n) for one
    block shared by every cell, and e a form with (2n, 2n) matrix ``ends``,
    or one (B, 2n, 2n) per copy, in the endpoint pair (x_0, x_N).  With v_k
    = (x_{k+1} - x_k) / h a cell adds h xx - (xv + xv^T) + vv/h to node k,
    vv/h to node k + 1 and xv - vv/h between them.  Each part is folded in
    as it comes, so a caller can free it before building the next."""
    diag, upper, corner = blocks
    h = grid.h

    def cells(form):  # as blocks (n, n, B, N), or (n, n, 1, 1)
        return form.transpose(2, 3, 0, 1)

    if vv is not None:
        part = cells(vv) / h
        diag[..., :-1] += part
        diag[..., 1:] += part
        upper -= part
    if xv is not None:
        part = cells(xv)
        diag[..., :-1] -= part
        diag[..., :-1] -= part.transpose(1, 0, 2, 3)
        upper += part
    if xx is not None:
        diag[..., :-1] += h * cells(xx)
    if ends is not None:
        n = corner.shape[0]
        ends = ends.reshape(-1, 2 * n, 2 * n).transpose(1, 2, 0)
        diag[..., 0] += ends[:n, :n]
        diag[..., -1] += ends[n:, n:]
        corner += ends[:n, n:]


def add_cost_hessian(blocks, P: ProblemSpec, grid: Grid, X: np.ndarray):
    """Add the Hessian of J_h at the copies X (B, N+1, n) to node blocks:
    theta's second derivatives per cell and phi's in the endpoint pair."""
    t, XL, V = _cells(grid, X)
    xx, xv, vv = P.theta_hessian_cells(t, XL, V)
    add_cell_form(blocks, grid, xx, xv, vv,
                  P.phi_hessian(X[..., 0, :], X[..., -1, :]))


def add_constraint_hessian(
    blocks, P: ProblemSpec, grid: Grid, X: np.ndarray, MU: np.ndarray,
    JW: np.ndarray, JE: np.ndarray,
):
    """Add to node blocks the Hessian at X of sum_k h psi_k(w_k(X)) +
    psi_E((x_0, x_N)) per copy, for cell functions psi_k with gradients MU
    (B, N, n) and Hessians JW (B, N, n, n) at w_k(X), and an endpoint
    function with Hessian JE (B, 2n, 2n).  The linearization dw_k = dv_k +
    g_x dx_k gives the Gauss-Newton part; the drift's curvature weighted
    by MU gives the rest.  constraint_adjoint with the same MU is its
    gradient."""
    t, XL, _ = _cells(grid, X)
    G = P.g_jacobian_cells(t, XL)
    add_cell_form(blocks, grid, vv=JW, ends=JE)
    JG = JW @ G
    add_cell_form(blocks, grid, xv=JG.swapaxes(-1, -2))  # G^T JW
    xx = G.swapaxes(-1, -2) @ JG
    del JG
    xx += P.g_hessian_cells(t, XL, MU)
    add_cell_form(blocks, grid, xx=xx)


# ---- Trajectory interface ------------------------------------------------


def evaluate_cost(P: ProblemSpec, x: Trajectory) -> float:
    """phi(x_0, x_N) + sum_k h * theta(t_k, x_k, v_k)."""
    _check_grid(P, x)
    return float(cost(P, x.grid, x.values))


def feasibility_residual(P: ProblemSpec, x: Trajectory) -> tuple[float, float]:
    """(velocity_defect, endpoint_defect) of x; see feasibility_defects."""
    _check_grid(P, x)
    W, E = finite_constraint_image(P, x.grid, x.values)
    velocity_defect, endpoint_defect = feasibility_defects(P, x.grid, W, E)
    return float(velocity_defect), float(endpoint_defect)


@dataclass(frozen=True)
class LipschitzEstimate:
    value: float
    provenance: str  # "declared" or "estimated"


def _sample_direction(grid: Grid, n: int, rng: np.random.Generator) -> np.ndarray:
    """Direction laws that choose the sample points of estimate_lipschitz:
    alternate node-Gaussian draws with random low-degree polynomial curves,
    so the points cover both rough and coherent perturbations of the
    reference curve.
    """
    if rng.uniform() < 0.5:
        return rng.standard_normal((grid.N + 1, n))
    degree = int(rng.integers(1, 4))
    t = grid.nodes() / grid.T
    coeffs = rng.standard_normal((degree + 1, n))
    powers = np.vander(t, degree + 1, increasing=True)  # (N+1, degree+1)
    return powers @ coeffs


# nodes in one cost_gradient call of estimate_lipschitz: its 41 points go
# in a few calls at N = 200 and one by one on fine grids, where wider
# calls made the estimate slower
_LIPSCHITZ_NODES = 2 ** 12


def estimate_lipschitz(
    P: ProblemSpec,
    xbar: Trajectory,
    samples: int = 20,
    seed: int = 0,
) -> LipschitzEstimate:
    """Empirical Lipschitz modulus of the cost near xbar, from local slopes
    (Wood & Zhang, J. Global Optim. 8, 1996).

    The slope of J_h at a point is the ac-dual norm of its node gradient.
    Returns 1.5x the largest slope at xbar and at the points xbar +- step
    for ``samples`` random steps of ac-norm r, uniform in [0.2, 1] times
    0.1 * (1 + ||xbar||_ac).  Flagged as an estimate.

    The points are evaluated as the copies of one cost_gradient call, up
    to _LIPSCHITZ_NODES / (N + 1) of them (at least one) at a time; the
    steps are drawn in the same order whatever the chunk size, so the
    estimate does not depend on it.  A slope that is not finite is a
    ProblemError.
    """
    if P.lipschitz_ell is not None:
        return LipschitzEstimate(P.lipschitz_ell, "declared")
    _check_grid(P, xbar)
    rng = np.random.default_rng(seed)
    grid, X = xbar.grid, xbar.values
    radius = 0.1 * (1.0 + ac_norms(X, grid.h))

    def points():
        yield X
        for _ in range(samples):
            d = _sample_direction(grid, P.n, rng)
            norm_d = ac_norms(d, grid.h)
            if norm_d < 1e-12:
                continue
            step = (radius * rng.uniform(0.2, 1.0) / norm_d) * d
            yield X + step
            yield X - step

    def slopes(Y: np.ndarray) -> list:
        with np.errstate(all="ignore"):  # a non-finite slope is reported below
            found = ac_dual_norm(cost_gradient(P, grid, Y))
        if not np.isfinite(found).all():
            raise ProblemError("the cost's slope is non-finite at a sample point "
                               "of the Lipschitz estimate: it overflows near "
                               "the candidate")
        return found.tolist()

    copies = min(max(1, _LIPSCHITZ_NODES // (grid.N + 1)), 1 + 2 * samples)
    chunk = np.empty((copies, *X.shape))
    found, count = [], 0
    for Y in points():
        chunk[count] = Y
        count += 1
        if count == len(chunk):
            found += slopes(chunk)
            count = 0
    if count:
        found += slopes(chunk[:count])
    return LipschitzEstimate(1.5 * max(found), "estimated")
