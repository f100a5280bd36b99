"""Uniform grids, piecewise-linear curves, and curve norms.

A Trajectory stores node values on a uniform grid and is read as the
piecewise-linear interpolant, so its velocity is piecewise constant and
the ac-norm ||x(0)|| + integral of ||x'|| is computed exactly.  A
CellPath stores one value per grid cell and is read as the piecewise-
constant function on the cells (multiplier densities, velocity samples).

All values are float64 and immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, T] with N cells of width h = T/N.

    The node times are computed once and shared read-only."""

    T: float
    N: int
    _nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.T > 0.0 and np.isfinite(self.T)):
            raise ValueError("grid horizon T must be a positive finite real")
        if self.N < 1:
            raise ValueError("grid must have at least one cell")
        nodes = np.linspace(0.0, self.T, self.N + 1)
        nodes.setflags(write=False)
        object.__setattr__(self, "_nodes", nodes)

    @property
    def h(self) -> float:
        return self.T / self.N

    def nodes(self) -> np.ndarray:
        return self._nodes

    def cell_lefts(self) -> np.ndarray:
        return self._nodes[:-1]

    def cell_mids(self) -> np.ndarray:
        return self.nodes()[:-1] + 0.5 * self.h

    def compatible(self, other: "Grid") -> bool:
        return self.N == other.N and abs(self.T - other.T) <= 1e-12 * max(
            1.0, abs(self.T)
        )


def _as_matrix(values, rows: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != rows:
        raise ValueError(f"{what} must have {rows} rows, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


class Trajectory:
    """Piecewise-linear curve given by node values of shape (N+1, n)."""

    def __init__(self, grid: Grid, values):
        self.grid = grid
        self.values = _as_matrix(values, grid.N + 1, "trajectory values")

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def velocities(self) -> np.ndarray:
        """Per-cell velocity (x_{k+1} - x_k) / h, shape (N, n)."""
        return np.diff(self.values, axis=0) / self.grid.h

    def midpoint_values(self) -> np.ndarray:
        return 0.5 * (self.values[:-1] + self.values[1:])

    def _check_mate(self, other: "Trajectory"):
        if not isinstance(other, Trajectory):
            raise TypeError("expected a Trajectory")
        if not self.grid.compatible(other.grid) or self.n != other.n:
            raise ValueError("trajectories live on incompatible grids")

    def __add__(self, other: "Trajectory") -> "Trajectory":
        self._check_mate(other)
        return Trajectory(self.grid, self.values + other.values)

    def __sub__(self, other: "Trajectory") -> "Trajectory":
        self._check_mate(other)
        return Trajectory(self.grid, self.values - other.values)

    def __rmul__(self, scalar: float) -> "Trajectory":
        return Trajectory(self.grid, float(scalar) * self.values)

    __mul__ = __rmul__


class CellPath:
    """Piecewise-constant function given by cell values of shape (N, n)."""

    def __init__(self, grid: Grid, values):
        self.grid = grid
        self.values = _as_matrix(values, grid.N, "cell values")

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def __add__(self, other: "CellPath") -> "CellPath":
        if not self.grid.compatible(other.grid) or self.n != other.n:
            raise ValueError("cell paths live on incompatible grids")
        return CellPath(self.grid, self.values + other.values)

    def __sub__(self, other: "CellPath") -> "CellPath":
        if not self.grid.compatible(other.grid) or self.n != other.n:
            raise ValueError("cell paths live on incompatible grids")
        return CellPath(self.grid, self.values - other.values)

    def __rmul__(self, scalar: float) -> "CellPath":
        return CellPath(self.grid, float(scalar) * self.values)

    __mul__ = __rmul__


def row_norms(arr: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array."""
    return np.sqrt(np.einsum("ij,ij->i", arr, arr))


def ac_norm(x: Trajectory) -> float:
    """||x(0)|| + integral of ||x'||; exact for piecewise-linear curves."""
    h = x.grid.h
    return float(
        np.linalg.norm(x.values[0]) + h * row_norms(x.velocities()).sum()
    )


def tail_sums(G: np.ndarray) -> np.ndarray:
    """Row k is sum_{m >= k} G_m.  For a node gradient G this is the same
    functional in (x(0), cell velocity) coordinates: under the node
    pairing, <G, u> = <R_0, u(0)> + h sum_j <R_{j+1}, u'_j> with R =
    tail_sums(G).  Leading axes are copies."""
    return np.cumsum(G[..., ::-1, :], axis=-2)[..., ::-1, :]


def ac_dual_norm(G: np.ndarray) -> float:
    """Dual of ac_norm under the node pairing <G, u> = sum_k <G_k, u_k>:
    the largest row norm of tail_sums(G).  A unit step u_m = e for m >= k,
    at the row k where it is attained, reaches it."""
    return float(row_norms(tail_sums(G)).max())


def one_one_norm(x: Trajectory) -> float:
    """Integral of ||x|| (trapezoid on node norms) plus integral of ||x'||."""
    h = x.grid.h
    node_norms = row_norms(x.values)
    state_term = h * (0.5 * (node_norms[:-1] + node_norms[1:])).sum()
    velocity_term = h * row_norms(x.velocities()).sum()
    return float(state_term + velocity_term)


def sup_norm(x: Trajectory) -> float:
    """Max over nodes and components of |x_{k,i}|; exact for PL curves."""
    return float(np.abs(x.values).max())


@dataclass(frozen=True)
class ReconstructionReport:
    """Residuals of an absolutely-continuous representative reconstruction.

    r_T:     distance of the reconstructed terminal value from -b
    r_match: L1 mismatch between the representative (at cell midpoints)
             and the given cell function q
    r_ode:   max defect of the representative's cell slopes against l
    """

    r_T: float
    r_match: float
    r_ode: float


def reconstruct_ac(
    q: CellPath, l: CellPath, a, b
) -> tuple[Trajectory, ReconstructionReport]:
    """Rebuild the absolutely continuous representative q_bar with
    derivative l and initial value a, and report how well (q, l, a, b)
    fit together.

    q_bar is the discrete antiderivative of l shifted to start at a, so
    q_bar(0) = a exactly and its cell slopes equal l up to roundoff.  If
    the inputs are consistent, q_bar(T) = -b and q_bar matches q almost
    everywhere; both are reported as residuals rather than enforced.
    """
    if not q.grid.compatible(l.grid) or q.n != l.n:
        raise ValueError("q and l must share a grid and dimension")
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.shape[0] != q.n or b.shape[0] != q.n:
        raise ValueError("endpoint vectors must match the path dimension")
    grid = q.grid
    h = grid.h
    nodes = np.zeros((grid.N + 1, q.n))
    nodes[1:] = np.cumsum(h * l.values, axis=0)
    nodes += a  # q_bar(0) = a
    qbar = Trajectory(grid, nodes)
    r_T = float(np.linalg.norm(nodes[-1] + b))
    r_match = float(h * row_norms(qbar.midpoint_values() - q.values).sum())
    r_ode = float(row_norms(qbar.velocities() - l.values).max())
    return qbar, ReconstructionReport(r_T=r_T, r_match=r_match, r_ode=r_ode)


def weak_identity_defect(
    qbar: Trajectory, l: CellPath, a, b, degree: int
) -> float:
    """Max defect of the weak-form identity

        int <l, h> + int <q_bar, h'> + <h(0), a> + <h(T), b> = 0

    over monomial test directions h(t) = t^j e_i, j = 0..degree.

    The q_bar term is integrated exactly per cell (piecewise-linear times
    polynomial); the l term uses the trapezoid value of h on each cell,
    so for consistent reconstructed inputs the defect decays like h^2.
    """
    if not qbar.grid.compatible(l.grid) or qbar.n != l.n:
        raise ValueError("q_bar and l must share a grid and dimension")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    grid = qbar.grid
    h = grid.h
    T = grid.T
    t0 = grid.nodes()[:-1]
    t1 = grid.nodes()[1:]
    vel = qbar.velocities()
    # cell-linear coefficients q_bar_i(t) = c0 + c1 * t
    c1 = vel
    c0 = qbar.values[:-1] - vel * t0[:, None]

    worst = 0.0
    for j in range(degree + 1):
        # trapezoid of t^j per cell for the <l, h> term
        trap = 0.5 * h * (t0**j + t1**j)
        l_term = (l.values * trap[:, None]).sum(axis=0)
        if j == 0:
            q_term = np.zeros(qbar.n)
        else:
            # exact integral of (c0 + c1 t) * j t^(j-1) over each cell
            d_pow = t1**j - t0**j
            d_pow_next = t1 ** (j + 1) - t0 ** (j + 1)
            q_term = (
                c0 * d_pow[:, None]
                + c1 * (j / (j + 1.0)) * d_pow_next[:, None]
            ).sum(axis=0)
        boundary = (a if j == 0 else 0.0) + b * T**j
        defect = l_term + q_term + boundary
        worst = max(worst, float(np.abs(defect).max()))
    return worst


def random_trajectory(grid: Grid, n: int, rng: np.random.Generator, scale: float = 1.0) -> Trajectory:
    """Node-Gaussian random trajectory; used by probes and property tests."""
    return Trajectory(grid, scale * rng.standard_normal((grid.N + 1, n)))
