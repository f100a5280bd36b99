"""Command-line surface.

Subcommands:
  solve              discretize and solve a problem file, writing the
                     trajectory, multipliers, and an outer-iteration
                     history CSV
  verify             certify a (trajectory, multipliers) bundle against
                     the first-order optimality conditions
  probe-cq           sample a lower estimate of the subregularity modulus
  check-derivatives  finite-difference checks of the cost and constraint
                     derivatives
  norms              curve norms of a trajectory file with the
                     equivalence inequalities
  catalog            list or export the built-in benchmark problems

Exit codes: 0 success (and verify verdict pass), 1 verify verdict fail,
2 input parse/validation error (also an out-of-range flag value or an
unwritable output path), 3 solver nonconvergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys

import numpy as np

from . import catalog as cat
from . import cq as cqmod
from . import jsonio
from . import problem as pb
from .convex import ConvexSetError
from .expr import ExprError
from .funspace import CellPath, Trajectory, ac_norm, one_one_norm, sup_norm
from .optimality import Tolerances, certify
from .solver import SolverConfig, SolverError, solve

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGED = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def _number(kind, minimum=0, *, inclusive=False):
    """An argparse type: a finite ``kind`` above ``minimum``, or equal to it
    when inclusive.  Argparse turns a rejected value into exit code 2."""

    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value)
                and (value >= minimum if inclusive else value > minimum)):
            bound = f"{'>=' if inclusive else '>'} {minimum}"
            raise argparse.ArgumentTypeError(
                f"expected a finite number {bound}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type on a parse error
    return parse


_POSITIVE_INT = _number(int)
_POSITIVE = _number(float)
_SEED = _number(int, inclusive=True)
_TOLERANCE = _number(float, inclusive=True)


def _load_problem(path: str) -> pb.ProblemSpec:
    try:
        return jsonio.problem_from_json(jsonio.load_json(path))
    except (jsonio.FormatError, ExprError, pb.ProblemError, ConvexSetError) as err:
        raise _CliError(f"{path}: {err}") from err


def _load_trajectory(path: str) -> Trajectory:
    try:
        return jsonio.trajectory_from_json(jsonio.load_json(path))
    except (jsonio.FormatError, ValueError) as err:
        raise _CliError(f"{path}: {err}") from err


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _solver_config(args) -> SolverConfig:
    try:
        return SolverConfig(
            grid_N=args.grid,
            penalty_rho=args.rho,
            penalty_growth=args.rho_growth,
            outer_iters=args.outer_iters,
            inner_tol=args.inner_tol,
            inner_max_steps=args.inner_max_steps,
            feas_tol=args.feas_tol,
        )
    except ValueError as err:
        raise _CliError(f"bad solver configuration: {err}") from err


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--grid", type=int, default=200, help="number of grid cells")
    p.add_argument("--rho", type=float, default=10.0, help="initial penalty")
    p.add_argument("--rho-growth", type=float, default=4.0)
    p.add_argument("--outer-iters", type=int, default=60)
    p.add_argument("--inner-tol", type=float, default=1e-7)
    p.add_argument("--inner-max-steps", type=int, default=4000)
    p.add_argument("--feas-tol", type=float, default=1e-8)


def _history_csv(history) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["outer_iter", "objective", "velocity_defect", "endpoint_defect", "rho"]
    )
    for row in history:
        writer.writerow(
            [
                row["outer_iter"],
                repr(row["objective"]),
                repr(row["velocity_defect"]),
                repr(row["endpoint_defect"]),
                repr(row["rho"]),
            ]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(args) -> int:
    P = _load_problem(args.problem)
    cfg = _solver_config(args)
    warm = _load_trajectory(args.warm_start) if args.warm_start else None
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)  # a bad --out-dir fails before solving
    try:
        result = solve(P, cfg, warm_start=warm)
    except SolverError as err:
        raise _CliError(f"solver failed: {err}", code=EXIT_NONCONVERGED) from err
    prefix = args.prefix or _stem(args.problem)
    traj_path = os.path.join(out_dir, f"{prefix}.trajectory.json")
    mult_path = os.path.join(out_dir, f"{prefix}.multipliers.json")
    hist_path = os.path.join(out_dir, f"{prefix}.history.csv")
    jsonio.atomic_write_json(traj_path, jsonio.trajectory_to_json(result.x))
    jsonio.atomic_write_json(
        mult_path, jsonio.multipliers_to_json(result.mu, result.s1, result.s2)
    )
    jsonio.atomic_write_text(hist_path, _history_csv(result.history))
    print(
        f"solve {args.problem}: objective={result.objective:.9g} "
        f"velocity_defect={result.velocity_defect:.3e} "
        f"endpoint_defect={result.endpoint_defect:.3e} "
        f"outer_iters={len(result.history)} "
        f"converged={'yes' if result.converged else 'no'} -> {traj_path}"
    )
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def _parse_vector(text, n: int, flag: str):
    if text is None:
        return None
    try:
        values = [float(part) for part in str(text).split(",")]
    except ValueError as err:
        raise _CliError(f"{flag}: expected comma-separated reals") from err
    if not all(map(math.isfinite, values)):
        raise _CliError(f"{flag}: components must be finite")
    if len(values) != n:
        raise _CliError(f"{flag}: expected {n} components, got {len(values)}")
    return np.asarray(values)


def _tolerances(args) -> Tolerances:
    kwargs = {}
    if args.tol_feasibility is not None:
        kwargs["feasibility"] = args.tol_feasibility
    if args.tol_el is not None:
        kwargs["el"] = args.tol_el
    if args.tol_wp is not None:
        kwargs["wp_gap"] = args.tol_wp
    if args.tol_transversality is not None:
        kwargs["transversality"] = args.tol_transversality
    if args.tol_mu is not None:
        kwargs["mu_membership"] = args.tol_mu
    if args.tol_support_zero is not None:
        kwargs["support_zero"] = args.tol_support_zero
    return Tolerances(**kwargs)


def _cmd_verify(args) -> int:
    P = _load_problem(args.problem)
    x = _load_trajectory(args.trajectory)
    try:
        pb._check_grid(P, x)
    except pb.ProblemError as err:
        raise _CliError(str(err)) from err
    grid = x.grid
    if args.multipliers and (args.mu or args.s1 or args.s2):
        raise _CliError("--multipliers already bundles mu/s1/s2")
    if args.multipliers:
        try:
            mu, s1, s2 = jsonio.multipliers_from_json(
                jsonio.load_json(args.multipliers)
            )
        except (jsonio.FormatError, ValueError) as err:
            raise _CliError(f"{args.multipliers}: {err}") from err
        if not mu.grid.compatible(grid) or mu.n != P.n:
            raise _CliError(
                "multiplier grid/dimension does not match the trajectory"
            )
    else:
        if args.mu:
            try:
                mu = jsonio.cellpath_from_json(jsonio.load_json(args.mu))
            except (jsonio.FormatError, ValueError) as err:
                raise _CliError(f"{args.mu}: {err}") from err
            if not mu.grid.compatible(grid) or mu.n != P.n:
                raise _CliError(
                    "multiplier grid/dimension does not match the trajectory"
                )
        else:
            mu = CellPath(grid, np.zeros((grid.N, P.n)))
        s1 = _parse_vector(args.s1, P.n, "--s1")
        s2 = _parse_vector(args.s2, P.n, "--s2")
    try:
        # certify fills a missing s1 or s2 from the stationarity rows
        report = certify(
            P, x, mu, s1, s2,
            kappa=args.kappa,
            tolerances=_tolerances(args),
            seed=args.seed,
        )
    except (pb.ProblemError, ConvexSetError, ExprError) as err:
        raise _CliError(f"verification failed to run: {err}") from err
    out_path = args.report or f"{_stem(args.trajectory)}.certificate.json"
    jsonio.atomic_write_json(out_path, report.to_dict())
    print(report.render_text())
    print(f"report -> {out_path}")
    return EXIT_OK if report.passed else EXIT_VERDICT_FAIL


def _cmd_probe_cq(args) -> int:
    P = _load_problem(args.problem)
    x = _load_trajectory(args.trajectory)
    cfg = _solver_config(args)
    out_path = args.out or f"{_stem(args.trajectory)}.cqprobe.json"
    jsonio.check_writable(out_path)  # a bad --out fails before probing
    try:
        result = cqmod.probe_kappa(
            P, x, samples=args.samples, delta=args.delta, seed=args.seed, cfg=cfg
        )
    except (ValueError, SolverError) as err:
        raise _CliError(f"probe failed: {err}") from err
    jsonio.atomic_write_json(out_path, result.to_dict())
    if result.kappa_hat is None:
        print(
            f"probe-cq: no active samples out of {result.samples} "
            f"(all perturbations stayed feasible) -> {out_path}"
        )
    else:
        print(
            f"probe-cq: kappa_hat={result.kappa_hat:.6g} "
            f"({result.admitted}/{result.samples} active samples; "
            f"lower bound only) -> {out_path}"
        )
    return EXIT_OK


def _cmd_check_derivatives(args) -> int:
    P = _load_problem(args.problem)
    x = _load_trajectory(args.trajectory)
    try:
        pb._check_grid(P, x)
    except pb.ProblemError as err:
        raise _CliError(str(err)) from err
    rng = np.random.default_rng(args.seed)
    grid = x.grid
    eps = args.eps
    worst_rel = 0.0
    worst_lin = 0.0
    try:
        base = pb.apply_constraint(P, x)
        for _ in range(args.directions):
            u = Trajectory(grid, rng.standard_normal((grid.N + 1, P.n)))
            sym = pb.gateaux_J(P, x, u)
            plus = pb.evaluate_cost(P, x + eps * u)
            minus = pb.evaluate_cost(P, x - eps * u)
            fd = (plus - minus) / (2 * eps)
            worst_rel = max(worst_rel, abs(sym - fd) / (1.0 + abs(sym)))
            lin = pb.apply_constraint_derivative(P, x, u)
            shifted = pb.apply_constraint(P, x + eps * u)
            dv = (
                shifted.velocity_part.values
                - base.velocity_part.values
                - eps * lin.velocity_part.values
            )
            de = shifted.endpoints - base.endpoints - eps * lin.endpoints
            defect = pb.reduced_image_norm(
                pb.ReducedImage(CellPath(grid, dv), de)
            )
            worst_lin = max(worst_lin, defect / eps)
    except (pb.ProblemError, ExprError, ConvexSetError) as err:
        raise _CliError(f"derivative check failed to run: {err}") from err
    payload = {
        "directions": args.directions,
        "eps": eps,
        "cost_derivative_max_rel_err": worst_rel,
        "constraint_linearization_max_err_over_eps": worst_lin,
    }
    out_path = args.out or f"{_stem(args.trajectory)}.derivcheck.json"
    jsonio.atomic_write_json(out_path, payload)
    print(
        f"check-derivatives: cost max-rel-err={worst_rel:.3e} "
        f"constraint linearization err/eps={worst_lin:.3e} -> {out_path}"
    )
    return EXIT_OK


def _cmd_norms(args) -> int:
    x = _load_trajectory(args.trajectory)
    T = x.grid.T
    ac = ac_norm(x)
    oo = one_one_norm(x)
    sup = sup_norm(x)
    lower = oo / (1.0 + T)
    upper = (2.0 * T + 1.0) / T * oo
    sup_bound = (2.0 + 2.0 * T) / T * oo
    payload = {
        "T": T,
        "N": x.grid.N,
        "n": x.n,
        "ac_norm": ac,
        "one_one_norm": oo,
        "sup_norm": sup,
        "equivalence": {
            "lower": lower,
            "upper": upper,
            "lower_holds": lower <= ac + 1e-9,
            "upper_holds": ac <= upper + 1e-9,
        },
        "sup_bound": {"bound": sup_bound, "holds": sup <= sup_bound + 1e-9},
    }
    out_path = args.out or f"{_stem(args.trajectory)}.norms.json"
    jsonio.atomic_write_json(out_path, payload)
    print(f"norms: ac={ac:.9g} one_one={oo:.9g} sup={sup:.9g}")
    print(
        f"equivalence: {lower:.9g} <= ac <= {upper:.9g} "
        f"[{'ok' if payload['equivalence']['lower_holds'] and payload['equivalence']['upper_holds'] else 'VIOLATED'}]"
    )
    print(
        f"sup bound:   sup = {sup:.9g} <= {sup_bound:.9g} "
        f"[{'ok' if payload['sup_bound']['holds'] else 'VIOLATED'}]"
    )
    print(f"report -> {out_path}")
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.case is None:
        for cid in cat.case_ids():
            case = cat.get_case(cid)
            print(f"{cid}: {case.note} (J* = {case.J_star})")
        return EXIT_OK
    try:
        case = cat.get_case(args.case)
    except KeyError as err:
        raise _CliError(str(err)) from err
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"{case.id}.json")
    jsonio.atomic_write_json(path, jsonio.problem_to_json(case.problem))
    print(f"catalog: wrote {case.id} -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _solve_arguments(p: argparse.ArgumentParser):
    p.add_argument("problem")
    p.add_argument("--warm-start", help="trajectory JSON used as initial iterate")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--prefix", help="output file prefix (default: problem stem)")
    _add_solver_flags(p)


def _verify_arguments(p: argparse.ArgumentParser):
    p.add_argument("problem")
    p.add_argument("trajectory")
    p.add_argument("--multipliers", help="multipliers JSON (mu, s1, s2)")
    p.add_argument("--mu", help="cell-path JSON with the multiplier density")
    p.add_argument("--s1", help="comma-separated endpoint multiplier at t=0")
    p.add_argument("--s2", help="comma-separated endpoint multiplier at t=T")
    p.add_argument("--kappa", type=_POSITIVE,
                   help="subregularity modulus for the bound")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--report", help="certificate JSON output path")
    p.add_argument("--tol-feasibility", type=_TOLERANCE)
    p.add_argument("--tol-el", type=_TOLERANCE)
    p.add_argument("--tol-wp", type=_TOLERANCE)
    p.add_argument("--tol-transversality", type=_TOLERANCE)
    p.add_argument("--tol-mu", type=_TOLERANCE)
    p.add_argument("--tol-support-zero", type=_TOLERANCE)


def _probe_cq_arguments(p: argparse.ArgumentParser):
    p.add_argument("problem")
    p.add_argument("trajectory")
    p.add_argument("--samples", type=_POSITIVE_INT, default=50)
    p.add_argument("--delta", type=_POSITIVE, default=0.1)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out")
    _add_solver_flags(p)


def _check_derivatives_arguments(p: argparse.ArgumentParser):
    p.add_argument("problem")
    p.add_argument("trajectory")
    p.add_argument("--directions", type=_POSITIVE_INT, default=20)
    p.add_argument("--eps", type=_POSITIVE, default=1e-5)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out")


def _norms_arguments(p: argparse.ArgumentParser):
    p.add_argument("trajectory")
    p.add_argument("--out")


def _catalog_arguments(p: argparse.ArgumentParser):
    p.add_argument("case", nargs="?", help="case id to export (p1..p4)")
    p.add_argument("--out-dir", default=".")


# name: (help, arguments, handler), in the order of the usage line
_COMMANDS = {
    "solve": ("solve a problem file", _solve_arguments, _cmd_solve),
    "verify": ("certify a candidate bundle", _verify_arguments, _cmd_verify),
    "probe-cq": ("sample the subregularity modulus", _probe_cq_arguments,
                 _cmd_probe_cq),
    "check-derivatives": ("finite-difference checks",
                          _check_derivatives_arguments, _cmd_check_derivatives),
    "norms": ("curve norms of a trajectory file", _norms_arguments, _cmd_norms),
    "catalog": ("list or export built-in benchmarks", _catalog_arguments,
                _cmd_catalog),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Every subcommand is listed with its help;
    with a command name only that one gets its arguments, which is all a
    command line starting with it can reach."""
    parser = argparse.ArgumentParser(
        prog="bolzakit",
        description="Solve and certify Bolza problems with velocity constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except _CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except OSError as err:  # unreadable inputs are FormatErrors: an output
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return EXIT_VALIDATION


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
