"""Sampling probe for the metric-subregularity constraint qualification.

The qualification asks for a modulus kappa with

    dist(x; S) <= kappa * [ int dist(x' + g(t,x); Omega1) dt
                            + dist((x(0), x(T)); Omega2) ]

for all curves x near the reference.  Subregularity is not decidable by
sampling; the probe draws random perturbations, bounds the left side
from above by a feasibility restoration, and reports the largest
observed ratio.  The result is a lower estimate of any valid kappa (up
to restoration slack) and never a proof that the qualification holds.

The restorations are independent, so the probe works on node arrays
(S, N+1, n) from the draw to the ratios: it draws every perturbation in
one call (the stream of one draw per sample), measures the defects of
all of them in one constraint image, and restores the active ones as
the copies of one ALM (a few ALMs on fine grids).  They share the
penalty and the stop; each copy's converged flag is its own stop test,
and a sample whose restoration did not converge is dropped.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import problem as pb
from .funspace import Trajectory, ac_norms
from .solver import SolverConfig, restore_feasibility


@dataclass(frozen=True)
class CqSample:
    perturbation_norm: float
    lhs_upper_bound: float
    rhs_defect: float
    ratio: float | None


@dataclass
class CqProbeResult:
    kappa_hat: float | None
    samples: int
    admitted: int
    excluded_feasible: int
    dropped_nonconverged: int
    delta: float
    seed: int
    caveat: str
    records: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


_RHS_FLOOR = 1e-10  # below this the ratio is 0/0 noise


def probe_kappa(
    P: pb.ProblemSpec,
    xbar: Trajectory,
    samples: int,
    delta: float,
    seed: int,
    cfg: SolverConfig,
) -> CqProbeResult:
    """Probe the subregularity modulus around a feasible curve.

    Perturbations are node-Gaussian, rescaled to ac-norm exactly delta.
    Samples whose constraint defect ends up below the 0/0 floor are
    excluded; samples whose restoration does not converge are dropped and
    counted.  kappa_hat is the max admitted ratio, or None when no sample
    was active.
    """
    pb._check_grid(P, xbar)
    if not delta > 0:
        raise ValueError("delta must be positive")
    vdef, edef = pb.feasibility_residual(P, xbar)
    if vdef + edef > 1e-6:
        raise ValueError(
            "reference curve is infeasible; the probe needs a feasible anchor"
        )
    rng = np.random.default_rng(seed)
    grid = xbar.grid
    D = rng.standard_normal((samples, grid.N + 1, P.n))
    norms = ac_norms(D, grid.h)
    live = norms >= 1e-14  # a null perturbation is excluded
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        X = xbar.values + (delta / norms[live])[:, None, None] * D[live]
    if not np.isfinite(X).all():
        raise ValueError("trajectory values contains non-finite entries")
    W, E = pb.finite_constraint_image(P, grid, X)
    rhs = np.add(*pb.feasibility_defects(P, grid, W, E))  # each curve's defect
    active = rhs > _RHS_FLOOR
    _, gaps, converged = restore_feasibility(P, grid, X[active], cfg)
    restored = zip(gaps.tolist(), converged.tolist())
    records: list[CqSample] = []
    kappa_hat: float | None = None
    excluded = samples - len(X)
    dropped = 0
    for r in rhs.tolist():
        if r <= _RHS_FLOOR:
            excluded += 1
            records.append(CqSample(delta, 0.0, r, None))
            continue
        gap, ok = next(restored)
        if not ok:
            dropped += 1
            continue
        ratio = gap / r
        records.append(CqSample(delta, gap, r, ratio))
        kappa_hat = ratio if kappa_hat is None else max(kappa_hat, ratio)
    admitted = sum(1 for r in records if r.ratio is not None)
    caveat = (
        "no active samples" if kappa_hat is None
        else "lower bound only: no violation witnessed; kappa >= kappa_hat"
    )
    return CqProbeResult(
        kappa_hat=kappa_hat,
        samples=samples,
        admitted=admitted,
        excluded_feasible=excluded,
        dropped_nonconverged=dropped,
        delta=delta,
        seed=seed,
        caveat=caveat,
        records=records,
    )
