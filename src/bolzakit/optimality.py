"""Certification of first-order optimality for a candidate solution.

Given a trajectory x, a velocity-constraint multiplier density mu, and
endpoint multipliers (s1, s2), this module reconstructs the adjoint arc
and measures the defects of the classical necessary conditions:

  EL  adjoint (Euler-Lagrange) equation
          p' - g_x(t,x)^T p = theta_x - g_x(t,x)^T theta_v      (a.e.)
  WP  maximization (Weierstrass-Pontryagin) condition
          <p - theta_v, x' + g(t,x)> = max_{w in Omega1} <p - theta_v, w>
  TR  transversality inclusion
          (p(0), -p(T)) in grad phi + N_{Omega2}(x(0), x(T))
  NC  pointwise normal-cone membership mu(t) in N_{Omega1}(x'+g)
  BOUND  the multiplier-norm estimate ||lambda|| <= kappa * ell

All residuals are nonnegative; verdicts are pure functions of the
residuals and the supplied tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .funspace import CellPath, Trajectory

AdjointArc = Trajectory


@dataclass(frozen=True)
class Tolerances:
    """Pass tolerances for the certificate verdicts.

    ``el`` defaults to el_base * (1 + running-cost gradient scale) when
    left unset.  ``support_zero`` is the threshold below which a
    maximization direction counts as zero when testing unbounded sets;
    it absorbs solver-grade noise and must stay well under wp_gap.
    """

    feasibility: float = 1e-6
    el: float | None = None
    el_base: float = 1e-3
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

    _ORDER = (
        ("FEAS", "feasibility (velocity, endpoint defects)"),
        ("EL", "adjoint equation residual (L1)"),
        ("WP", "maximization gap (max over cells)"),
        ("TR", "transversality residual"),
        ("NC", "multiplier membership residual (max)"),
        ("BOUND", "multiplier norm bound"),
    )

    def to_dict(self) -> dict:
        return {
            "feasibility": {
                "velocity_defect": self.velocity_defect,
                "endpoint_defect": self.endpoint_defect,
            },
            "el_residual_l1": self.el_residual_l1,
            "wp_gap_max": self.wp_gap_max,
            "wp_gap_l1": self.wp_gap_l1,
            "wp_infinite_cell": self.wp_infinite_cell,
            "transversality_residual": self.transversality_residual,
            "mu_membership_max": self.mu_membership_max,
            "endpoint_consistency_defect": self.endpoint_consistency_defect,
            "lambda_norm": self.lambda_norm,
            "lambda_mu_sup": self.lambda_mu_sup,
            "lambda_endpoint_norm": self.lambda_endpoint_norm,
            "kappa": self.kappa,
            "kappa_provenance": self.kappa_provenance,
            "ell": self.ell,
            "ell_provenance": self.ell_provenance,
            "kappa_ell_bound": self.kappa_ell_bound,
            "bound_satisfied": self.bound_satisfied,
            "integrated_endpoint_residual": self.integrated_endpoint_residual,
            "tolerances": dict(self.tolerances),
            "verdicts": dict(self.verdicts),
            "passed": self.passed,
            "notes": list(self.notes),
        }

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


def reconstruct_adjoint(P: pb.ProblemSpec, x: Trajectory, mu: CellPath) -> AdjointArc:
    """Discrete absolutely-continuous representative of
    t -> theta_v(t, x, x') + mu(t).

    Cell values are averaged onto nodes with endpoint preservation
    (p_0 = d_0, p_N = d_{N-1}, interior p_k = (d_{k-1} + d_k) / 2).
    """
    pb._check_grid(P, x)
    if not mu.grid.compatible(x.grid) or mu.n != x.n:
        raise pb.ProblemError("mu must live on the trajectory's grid")
    grid = x.grid
    _, theta_v = P.theta_grad_cells(grid.cell_lefts(), x.values[:-1], x.velocities())
    d = theta_v + mu.values
    p = np.empty((grid.N + 1, P.n))
    p[0] = d[0]
    p[-1] = d[-1]
    if grid.N > 1:
        p[1:-1] = 0.5 * (d[:-1] + d[1:])
    return Trajectory(grid, p)


def el_residual(P: pb.ProblemSpec, x: Trajectory, p: AdjointArc) -> float:
    """L1 norm of the adjoint-equation defect

        p' - g_x^T p_bar - theta_x + g_x^T theta_v

    with p_bar the cell average of p."""
    pb._check_grid(P, x)
    if not p.grid.compatible(x.grid) or p.n != x.n:
        raise pb.ProblemError("adjoint arc must live on the trajectory's grid")
    grid = x.grid
    t = grid.cell_lefts()
    X, V = x.values[:-1], x.velocities()
    theta_x, theta_v = P.theta_grad_cells(t, X, V)
    G = P.g_jacobian_cells(t, X)
    pdot = p.velocities()
    pbar = p.midpoint_values()
    r = (
        pdot
        - np.einsum("kij,ki->kj", G, pbar)
        - theta_x
        + np.einsum("kij,ki->kj", G, theta_v)
    )
    return float(grid.h * np.linalg.norm(r, axis=1).sum())


def weierstrass_gap(
    P: pb.ProblemSpec,
    x: Trajectory,
    p: AdjointArc,
    support_zero_tol: float = 1e-6,
) -> tuple[float, float, list[float]]:
    """Per-cell maximization gaps sup_{w in Omega1} <c, w> - <c, w_k>
    with c = p_bar - theta_v and w_k the (feasibility-projected) velocity
    part.  Returns (max gap, h-weighted L1 gap, per-cell gaps); a cell
    with unbounded support reports an infinite gap.
    """
    pb._check_grid(P, x)
    grid = x.grid
    _, theta_v = P.theta_grad_cells(grid.cell_lefts(), x.values[:-1], x.velocities())
    W, _ = pb.constraint_image(P, grid, x.values)
    W_feas = project(P.omega1, W)
    C = p.midpoint_values() - theta_v
    gaps: list[float] = []
    for k in range(grid.N):
        c = C[k]
        if np.linalg.norm(c) <= support_zero_tol:
            gaps.append(0.0)
            continue
        sigma = support(P.omega1, c, zero_tol=support_zero_tol)
        if math.isinf(sigma):
            gaps.append(math.inf)
            continue
        gaps.append(float(sigma - c @ W_feas[k]))
    arr = np.array(gaps)
    finite = arr[np.isfinite(arr)]
    gap_l1 = float(grid.h * finite.sum()) if finite.size else 0.0
    if np.any(np.isinf(arr)):
        return math.inf, math.inf, gaps
    return float(arr.max()) if gaps else 0.0, gap_l1, gaps


def transversality_residual(P: pb.ProblemSpec, x: Trajectory, p: AdjointArc,
                            feas_tol: float = 1e-6) -> float:
    """Membership defect of (p(0), -p(T)) - grad phi in the normal cone
    to the endpoint set at (x(0), x(T))."""
    pb._check_grid(P, x)
    gx0, gxT = P.phi_gradients(x.values[0], x.values[-1])
    xi = np.concatenate([p.values[0] - gx0, -p.values[-1] - gxT])
    endpoints = np.concatenate([x.values[0], x.values[-1]])
    return float(normal_cone_residual(P.omega2, endpoints, xi, feas_tol=feas_tol))


def mu_membership(P: pb.ProblemSpec, x: Trajectory, mu: CellPath) -> float:
    """Max over cells of the normal-cone membership defect of mu_k at the
    feasibility-projected velocity part."""
    pb._check_grid(P, x)
    if not mu.grid.compatible(x.grid) or mu.n != x.n:
        raise pb.ProblemError("mu must live on the trajectory's grid")
    W, _ = pb.constraint_image(P, x.grid, x.values)
    W_feas = project(P.omega1, W)
    res = normal_cone_residual(P.omega1, W_feas, mu.values, feas_tol=1e-6)
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


def integrated_endpoint_residual(P: pb.ProblemSpec, x: Trajectory) -> float | None:
    """For reduced problems (zero drift, unconstrained velocity, endpoint
    set splitting per endpoint): the defect of

        int theta_x(t, x) dt + grad_{x0} phi + grad_{xT} phi
            in  -N(x(0)) - N(x(T)),

    the condition obtained by integrating the adjoint equation into the
    transversality inclusion.  Returns None when the structure does not
    apply.
    """
    if not isinstance(P.omega1, Reals):
        return None
    if not all(isinstance(gi, pb.ex.Const) and gi.value == 0.0 for gi in P.g):
        return None
    factors = _endpoint_factors(P.omega2)
    if factors is None:
        return None
    set0, setT = factors
    grid = x.grid
    theta_x, _ = P.theta_grad_cells(
        grid.cell_lefts(), x.values[:-1], x.velocities()
    )
    gx0, gxT = P.phi_gradients(x.values[0], x.values[-1])
    value = grid.h * theta_x.sum(axis=0) + gx0 + gxT
    a0 = project(set0, x.values[0])
    aT = project(setT, x.values[-1])
    return neg_normal_sum_distance(set0, a0, setT, aT, value)


def certify(
    P: pb.ProblemSpec,
    x: Trajectory,
    mu: CellPath,
    s1,
    s2,
    kappa: float | None = None,
    tolerances: Tolerances | None = None,
    kappa_provenance: str = "supplied",
    seed: int = 0,
) -> CertificateReport:
    """Run every optimality check on the candidate bundle and aggregate a
    verdict per condition.

    The multiplier norm uses max(sup-norm of the density, Euclidean norm
    of the endpoint pair): the dual norm of the velocity-L1 x endpoint
    product space.  The norm bound is checked only when kappa is given;
    ell comes from the problem declaration or is estimated by sampling
    (and flagged).
    """
    tol = tolerances or Tolerances()
    pb._check_grid(P, x)
    s1 = np.asarray(s1, dtype=float).reshape(-1)
    s2 = np.asarray(s2, dtype=float).reshape(-1)
    if s1.shape[0] != P.n or s2.shape[0] != P.n:
        raise pb.ProblemError("endpoint multipliers must have the state dimension")

    notes: list[str] = []
    vdef, edef = pb.feasibility_residual(P, x)
    feasible = (vdef + edef) <= tol.feasibility

    p = reconstruct_adjoint(P, x, mu)
    grid = x.grid
    t = grid.cell_lefts()
    theta_x, theta_v = P.theta_grad_cells(t, x.values[:-1], x.velocities())
    el_scale = 1.0 + float(
        np.linalg.norm(theta_x, axis=1).max(initial=0.0)
        + np.linalg.norm(theta_v, axis=1).max(initial=0.0)
    )
    el_tol = tol.el if tol.el is not None else tol.el_base * el_scale

    el = el_residual(P, x, p)
    wp_max, wp_l1, wp_cells = weierstrass_gap(
        P, x, p, support_zero_tol=tol.support_zero
    )
    wp_inf_cell = None
    if math.isinf(wp_max):
        wp_inf_cell = int(next(i for i, g in enumerate(wp_cells) if math.isinf(g)))
        notes.append(
            f"maximization gap is infinite at cell {wp_inf_cell}: the "
            "multiplier direction leaves the support of the velocity set"
        )
    if feasible:
        tr = transversality_residual(P, x, p, feas_tol=tol.feasibility)
        nc = mu_membership(P, x, mu)
    else:
        tr = math.inf
        nc = math.inf
        notes.append(
            "candidate is infeasible beyond tolerance; pointwise conditions "
            "evaluated as failed"
        )

    gx0, gxT = P.phi_gradients(x.values[0], x.values[-1])
    consistency = float(
        np.linalg.norm(p.values[0] - s1 - gx0)
        + np.linalg.norm(p.values[-1] + s2 + gxT)
    )

    mu_sup = float(np.linalg.norm(mu.values, axis=1).max(initial=0.0))
    s_norm = float(np.linalg.norm(np.concatenate([s1, s2])))
    lam = max(mu_sup, s_norm)

    ell_val: float | None = None
    ell_prov: str | None = None
    bound: float | None = None
    bound_ok: bool | None = None
    if kappa is not None:
        if P.lipschitz_ell is not None:
            ell_val, ell_prov = P.lipschitz_ell, "declared"
        else:
            est = pb.estimate_lipschitz(P, x, seed=seed)
            ell_val, ell_prov = est.value, est.provenance
        bound = kappa * ell_val
        bound_ok = lam <= bound

    ie = integrated_endpoint_residual(P, x) if feasible else None

    verdicts = {
        "feasibility": "pass" if feasible else "fail",
        "el": "pass" if el <= el_tol else "fail",
        "wp": "pass" if wp_max <= tol.wp_gap else "fail",
        "transversality": "pass" if tr <= tol.transversality else "fail",
        "mu_membership": "pass" if nc <= tol.mu_membership else "fail",
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
        tolerances={
            "feasibility": tol.feasibility,
            "el": el_tol,
            "wp_gap": tol.wp_gap,
            "transversality": tol.transversality,
            "mu_membership": tol.mu_membership,
            "support_zero": tol.support_zero,
        },
        verdicts=verdicts,
        passed=passed,
        notes=notes,
    )
