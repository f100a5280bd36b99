"""Certification of first-order optimality for a candidate solution.

A candidate is a trajectory x on a grid of step h, a velocity-constraint
multiplier density mu (cell values) and endpoint multipliers (s1, s2).
The certificate checks the first-order (KKT) system of the direct
transcription in problem.py and reads it off one array, the node
gradient of its Lagrangian with zero endpoint multipliers,

    L = cost_gradient(x) + constraint_adjoint(x, mu, 0),

which the solver drives to zero.  With d_k = theta_v,k + mu_k the
adjoint arc is the staggered p_{k+1} = d_k, p_0 = grad_{x0} phi - L_0.

  EL  adjoint (Euler-Lagrange) equation, discrete:
          d_k - d_{k-1} = h (theta_x + g_x^T mu)_k,   k = 1..N-1,
      whose defect is row k of L; the residual is sum_k |L_k|
  WP  maximization (Weierstrass-Pontryagin) condition on each cell; its
      direction p_{k+1} - theta_v,k is mu_k:
          <mu_k, w_k> = max_{w in Omega1} <mu_k, w>,  w_k = v_k + g(t_k, x_k)
  TR  transversality inclusion of the endpoint multipliers the adjoint
      implies, xi = -(L_0, L_N) = (p_0, -p_N) - grad phi:
          xi in N_{Omega2}(x(0), x(T))
  NC  pointwise normal-cone membership mu_k in N_{Omega1}(w_k)
  EC  endpoint consistency |xi - (s1, s2)| (informational)
  BOUND  the multiplier-norm estimate ||lambda|| <= kappa * ell

WP and NC use the velocity part projected onto Omega1.  All residuals
are nonnegative; verdicts are pure functions of the residuals and the
supplied tolerances.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import problem as pb
from .convex import (
    Product,
    Reals,
    distance,
    neg_normal_sum_distance,
    normal_cone_residual,
    project,
    support,
)
from .funspace import CellPath, Trajectory, row_norms, scaled_row_norms, vector_norm

# the default EL tolerance is EL_BASE * (1 + running-cost gradient scale)
EL_BASE = 1e-3


@dataclass(frozen=True)
class Tolerances:
    """Pass tolerances for the certificate verdicts.

    ``el`` defaults to EL_BASE * (1 + running-cost gradient scale) when
    left unset.  ``support_zero`` is the threshold below which a
    maximization direction counts as zero when testing unbounded sets;
    it absorbs solver-grade noise and must stay well under wp_gap.
    """

    feasibility: float = 1e-6
    el: float | None = None
    wp_gap: float = 1e-4
    transversality: float = 1e-5
    mu_membership: float = 1e-5
    support_zero: float = 1e-6


@dataclass
class CertificateReport:
    el_residual_l1: float
    wp_gap_max: float
    wp_gap_l1: float
    wp_infinite_cell: int | None
    transversality_residual: float
    mu_membership_max: float
    endpoint_consistency_defect: float
    lambda_norm: float
    lambda_mu_sup: float
    lambda_endpoint_norm: float
    velocity_defect: float
    endpoint_defect: float
    kappa: float | None
    kappa_provenance: str | None
    ell: float | None
    ell_provenance: str | None
    kappa_ell_bound: float | None
    bound_satisfied: bool | None
    integrated_endpoint_residual: float | None
    tolerances: dict
    verdicts: dict
    passed: bool
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        d = asdict(self)
        feasibility = {key: d.pop(key) for key in ("velocity_defect",
                                                   "endpoint_defect")}
        return {"feasibility": feasibility, **d}

    def render_text(self) -> str:
        lines = ["certificate"]

        def fmt(v):
            if v is None:
                return "-"
            if isinstance(v, float) and math.isinf(v):
                return "inf"
            return f"{v:.6e}" if isinstance(v, float) else str(v)

        rows = [
            ("FEAS", "feasibility defects (velocity + endpoint)",
             self.velocity_defect + self.endpoint_defect,
             self.tolerances["feasibility"], self.verdicts["feasibility"]),
            ("EL", "adjoint equation residual (L1)", self.el_residual_l1,
             self.tolerances["el"], self.verdicts["el"]),
            ("WP", "maximization gap (max)", self.wp_gap_max,
             self.tolerances["wp_gap"], self.verdicts["wp"]),
            ("TR", "transversality residual", self.transversality_residual,
             self.tolerances["transversality"], self.verdicts["transversality"]),
            ("NC", "multiplier membership (max)", self.mu_membership_max,
             self.tolerances["mu_membership"], self.verdicts["mu_membership"]),
        ]
        for tag, label, value, tol, verdict in rows:
            lines.append(
                f"[{tag:5}] {label:44} {fmt(value):>12}  tol {tol:.1e}  "
                f"{verdict.upper()}"
            )
        if self.kappa_ell_bound is not None:
            lines.append(
                f"[BOUND] |lambda| <= kappa*ell: {fmt(self.lambda_norm)} <= "
                f"{fmt(self.kappa_ell_bound)} "
                f"(kappa={fmt(self.kappa)} [{self.kappa_provenance}], "
                f"ell={fmt(self.ell)} [{self.ell_provenance}])  "
                f"{self.verdicts['bound'].upper()}"
            )
        else:
            lines.append("[BOUND] |lambda| <= kappa*ell: skipped (no kappa)")
        lines.append(
            f"[EC   ] endpoint multiplier consistency defect "
            f"{fmt(self.endpoint_consistency_defect):>12}  (informational)"
        )
        if self.integrated_endpoint_residual is not None:
            lines.append(
                f"[IE   ] integrated endpoint inclusion: value defect "
                f"{fmt(self.integrated_endpoint_residual):>12}  "
                "(reduced problem: int theta_x dt + grad phi in "
                "-N(x(0)) - N(x(T)))"
            )
        for note in self.notes:
            lines.append(f"        note: {note}")
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def stationarity(P: pb.ProblemSpec, x: Trajectory, mu: CellPath) -> np.ndarray:
    """L, the node gradient of the transcription's Lagrangian at (x, mu)
    with zero endpoint multipliers, shape (N+1, n); ProblemError, naming
    the first node, when it is not finite."""
    pb._check_grid(P, x)
    if not mu.grid.compatible(x.grid) or mu.n != x.n:
        raise pb.ProblemError("mu must live on the trajectory's grid")
    grid, X = x.grid, x.values
    with np.errstate(all="ignore"):  # a non-finite L is reported below
        L = pb.cost_gradient(P, grid, X) + pb.constraint_adjoint(
            P, grid, X, mu.values, np.zeros(2 * P.n)
        )
    pb.require_finite(L, grid.nodes(), "stationarity row L", "node",
                      "the cost or drift derivatives overflow there")
    return L


def endpoint_multipliers(L: np.ndarray) -> np.ndarray:
    """xi = -(L_0, L_N): the endpoint multipliers that close the first and
    last stationarity rows."""
    return -np.concatenate([L[0], L[-1]])


def reconstruct_adjoint(P: pb.ProblemSpec, x: Trajectory, mu: CellPath) -> Trajectory:
    """The transcription's adjoint arc: p_{k+1} = d_k = theta_v,k + mu_k
    and p_0 = grad_{x0} phi - L_0, so that p_{k+1} - p_k =
    h (theta_x + g_x^T mu)_k - L_k for k = 1..N-1 and (p_0, -p_N) - grad phi
    is endpoint_multipliers(L).  For reporting; certify reads L."""
    L = stationarity(P, x, mu)
    grid = x.grid
    _, theta_v = P.theta_grad_cells(*pb._cells(grid, x.values))
    gx0, _ = P.phi_gradients(x.values[0], x.values[-1])
    p = np.empty((grid.N + 1, P.n))
    p[0] = gx0 - L[0]
    p[1:] = theta_v + mu.values
    return Trajectory(grid, p)


def el_residual(L: np.ndarray) -> float:
    """L1 norm of the discrete adjoint-equation defect: the interior
    stationarity rows sum_{k=1}^{N-1} |L_k|."""
    return float(scaled_row_norms(L[1:-1]).sum())


def weierstrass_gap(
    P: pb.ProblemSpec,
    W: np.ndarray,
    mu: np.ndarray,
    h: float,
    support_zero_tol: float = 1e-6,
) -> tuple[float, float, np.ndarray]:
    """Per-cell maximization gaps sup_{w in Omega1} <mu_k, w> - <mu_k, W_k>
    for the (feasibility-projected) velocity part W.  Returns (max gap,
    h-weighted L1 gap, per-cell gaps); a cell with |mu_k| at most
    ``support_zero_tol`` has gap 0, and a cell with unbounded support
    reports an infinite gap.
    """
    live = row_norms(mu) > support_zero_tol
    gaps = np.zeros(len(mu))
    if live.any():
        C = mu[live]
        sigma = support(P.omega1, C, zero_tol=support_zero_tol)
        gaps[live] = sigma - np.einsum("ki,ki->k", C, W[live])
    if np.isinf(gaps).any():
        return math.inf, math.inf, gaps
    return float(gaps.max()), float(h * gaps.sum()), gaps


def transversality_residual(P: pb.ProblemSpec, E: np.ndarray, L: np.ndarray,
                            feas_tol: float = 1e-6) -> float:
    """Membership defect of endpoint_multipliers(L) in the normal cone to
    the endpoint set at the endpoint pair E = (x(0), x(T))."""
    return float(
        normal_cone_residual(P.omega2, E, endpoint_multipliers(L), feas_tol=feas_tol)
    )


def mu_membership(P: pb.ProblemSpec, W: np.ndarray, mu: np.ndarray) -> float:
    """Max over cells of the normal-cone membership defect of mu_k at the
    feasibility-projected velocity part W_k."""
    res = normal_cone_residual(P.omega1, W, mu, feas_tol=1e-6)
    return float(np.asarray(res).max())


def _endpoint_factors(omega2) -> tuple | None:
    """Split the endpoint set into an x(0) factor and an x(T) factor of
    equal dimension, when its structure allows it."""
    from . import convex as cx

    n2 = omega2.dim
    n = n2 // 2
    if isinstance(omega2, Product):
        dims = np.cumsum([0] + [f.dim for f in omega2.factors])
        if n in dims:
            split = int(np.searchsorted(dims, n))
            left = omega2.factors[:split]
            right = omega2.factors[split:]
            mk = lambda fs: fs[0] if len(fs) == 1 else Product(fs)
            return mk(left), mk(right)
        return None
    if isinstance(omega2, cx.Box):
        return cx.Box(omega2.lower[:n], omega2.upper[:n]), cx.Box(
            omega2.lower[n:], omega2.upper[n:]
        )
    if isinstance(omega2, cx.Singleton):
        return cx.Singleton(omega2.point[:n]), cx.Singleton(omega2.point[n:])
    if isinstance(omega2, Reals):
        return Reals(n), Reals(n)
    return None


def integrated_endpoint_residual(
    P: pb.ProblemSpec, E: np.ndarray, L: np.ndarray
) -> float | None:
    """For reduced problems (zero drift, unconstrained velocity, endpoint
    set splitting per endpoint): the defect of

        h sum_k theta_x(t_k, x_k, v_k) + grad_{x0} phi + grad_{xT} phi
            in  -N(x(0)) - N(x(T)),

    the condition obtained by summing the adjoint equation into the
    transversality inclusion.  With zero drift the d terms of the
    stationarity rows telescope, so the left side is sum_k L_k.  Returns
    None when the structure does not apply.
    """
    if not isinstance(P.omega1, Reals):
        return None
    if not all(isinstance(gi, pb.ex.Const) and gi.value == 0.0 for gi in P.g):
        return None
    factors = _endpoint_factors(P.omega2)
    if factors is None:
        return None
    set0, setT = factors
    a0 = project(set0, E[: P.n])
    aT = project(setT, E[P.n :])
    return neg_normal_sum_distance(set0, a0, setT, aT, L.sum(axis=0))


def _within(value: float, tol: float) -> bool:
    """value <= tol, with both finite: no check passes on an overflow."""
    return math.isfinite(value) and math.isfinite(tol) and value <= tol


def _verdict(value: float, tol: float) -> str:
    return "pass" if _within(value, tol) else "fail"


def certify(
    P: pb.ProblemSpec,
    x: Trajectory,
    mu: CellPath,
    s1=None,
    s2=None,
    kappa: float | None = None,
    tolerances: Tolerances | None = None,
    kappa_provenance: str = "supplied",
    seed: int = 0,
) -> CertificateReport:
    """Run every optimality check on the candidate bundle and aggregate a
    verdict per condition.  A missing s1 or s2 is the half of
    endpoint_multipliers(L) that closes the stationarity rows.

    The multiplier norm uses max(sup-norm of the density, Euclidean norm
    of the endpoint pair): the dual norm of the velocity-L1 x endpoint
    product space.  The norm bound is checked only when kappa is given;
    ell comes from the problem declaration or is estimated from the cost
    gradient's ac-dual norm at and around the candidate (and flagged).
    """
    tol = tolerances or Tolerances()
    pb._check_grid(P, x)
    grid = x.grid
    # the image first: a drift that overflows is named by its cell
    W, E = pb.finite_constraint_image(P, grid, x.values)
    L = stationarity(P, x, mu)
    xi = endpoint_multipliers(L)
    s1 = xi[: P.n] if s1 is None else np.asarray(s1, dtype=float).reshape(-1)
    s2 = xi[P.n :] if s2 is None else np.asarray(s2, dtype=float).reshape(-1)
    if s1.shape[0] != P.n or s2.shape[0] != P.n:
        raise pb.ProblemError("endpoint multipliers must have the state dimension")

    notes: list[str] = []
    vdef, edef = (float(d) for d in pb.feasibility_defects(P, grid, W, E))
    feasible = (vdef + edef) <= tol.feasibility

    W = project(P.omega1, W)
    theta_x, theta_v = P.theta_grad_cells(*pb._cells(grid, x.values))
    el_scale = 1.0 + float(
        scaled_row_norms(theta_x).max(initial=0.0)
        + scaled_row_norms(theta_v).max(initial=0.0)
    )
    el_tol = tol.el if tol.el is not None else EL_BASE * el_scale

    el = el_residual(L)
    wp_max, wp_l1, wp_cells = weierstrass_gap(
        P, W, mu.values, grid.h, support_zero_tol=tol.support_zero
    )
    wp_inf_cell = None
    if math.isinf(wp_max):
        wp_inf_cell = int(np.argmax(np.isinf(wp_cells)))
        notes.append(
            f"maximization gap is infinite at cell {wp_inf_cell}: the "
            "multiplier direction leaves the support of the velocity set"
        )
    if feasible:
        tr = transversality_residual(P, E, L, feas_tol=tol.feasibility)
        nc = mu_membership(P, W, mu.values)
    else:
        tr = math.inf
        nc = math.inf
        notes.append(
            "candidate is infeasible beyond tolerance; pointwise conditions "
            "evaluated as failed"
        )

    consistency = vector_norm(xi[: P.n] - s1) + vector_norm(xi[P.n :] - s2)

    mu_sup = float(scaled_row_norms(mu.values).max(initial=0.0))
    s_norm = vector_norm(np.concatenate([s1, s2]))
    lam = max(mu_sup, s_norm)

    ell_val: float | None = None
    ell_prov: str | None = None
    bound: float | None = None
    bound_ok: bool | None = None
    if kappa is not None:
        est = pb.estimate_lipschitz(P, x, seed=seed)
        ell_val, ell_prov = est.value, est.provenance
        bound = kappa * ell_val
        bound_ok = _within(lam, bound)

    ie = integrated_endpoint_residual(P, E, L) if feasible else None

    verdicts = {
        "feasibility": "pass" if feasible else "fail",
        "el": _verdict(el, el_tol),
        "wp": _verdict(wp_max, tol.wp_gap),
        "transversality": _verdict(tr, tol.transversality),
        "mu_membership": _verdict(nc, tol.mu_membership),
        "bound": (
            "skipped" if bound_ok is None else ("pass" if bound_ok else "fail")
        ),
    }
    passed = all(v == "pass" for k, v in verdicts.items() if v != "skipped")

    return CertificateReport(
        el_residual_l1=el,
        wp_gap_max=wp_max,
        wp_gap_l1=wp_l1,
        wp_infinite_cell=wp_inf_cell,
        transversality_residual=tr,
        mu_membership_max=nc,
        endpoint_consistency_defect=consistency,
        lambda_norm=lam,
        lambda_mu_sup=mu_sup,
        lambda_endpoint_norm=s_norm,
        velocity_defect=vdef,
        endpoint_defect=edef,
        kappa=kappa,
        kappa_provenance=kappa_provenance if kappa is not None else None,
        ell=ell_val,
        ell_provenance=ell_prov,
        kappa_ell_bound=bound,
        bound_satisfied=bound_ok,
        integrated_endpoint_residual=ie,
        tolerances=dict(asdict(tol), el=el_tol),
        verdicts=verdicts,
        passed=passed,
        notes=notes,
    )
