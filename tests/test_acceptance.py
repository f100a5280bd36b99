"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line when its
assertions hold.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

import bolzakit.cq as cq
import bolzakit.funspace as fs
import bolzakit.jsonio as jsonio
import bolzakit.optimality as opt
import bolzakit.problem as pb
import bolzakit.solver as sv
from bolzakit import convex as cx
from bolzakit import expr as ex
from bolzakit.catalog import get_case
from bolzakit.cli import main
from bolzakit.funspace import CellPath, Grid, Trajectory

from oracles import fit_order, random_expr, random_trajectory


def _report(name: str, started: float, budget: float):
    elapsed = time.time() - started
    assert elapsed < budget, f"{name} exceeded its {budget:.0f}s budget"
    print(f"[ACCEPTANCE] {name}: PASS ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------


def test_acceptance_norm_equivalence_suite():
    started = time.time()
    rng = np.random.default_rng(2026)
    combos = [(T, N) for T in (0.5, 1.0, 2.0) for N in (10, 100)]
    violations = 0
    total = 10_000
    for i in range(total):
        T, N = combos[i % len(combos)]
        n = int(rng.integers(1, 4))
        x = random_trajectory(Grid(T, N), n, rng, scale=2.0)
        ac = fs.ac_norm(x)
        oo = fs.one_one_norm(x)
        sup = fs.sup_norm(x)
        if not (oo / (1.0 + T) <= ac + 1e-9):
            violations += 1
        if not (ac <= (2.0 * T + 1.0) / T * oo + 1e-9):
            violations += 1
        if not (sup <= (2.0 + 2.0 * T) / T * oo + 1e-9):
            violations += 1
    assert violations == 0
    _report("norm-equivalence suite (10^4 trajectories)", started, 10.0)


def test_acceptance_derivative_oracles():
    started = time.time()
    rng = np.random.default_rng(515)
    eps = 1e-5
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 3))
        P = pb.ProblemSpec(
            n=n,
            T=1.0,
            phi=random_expr(rng, ex.PROFILE_TERMINAL, n, depth=2),
            theta=random_expr(rng, ex.PROFILE_RUNNING, n, depth=3),
            g=[random_expr(rng, ex.PROFILE_DRIFT, n, depth=2) for _ in range(n)],
            omega1=cx.Reals(n),
            omega2=cx.Reals(2 * n),
        )
        grid = Grid(1.0, 20)
        x = random_trajectory(grid, n, rng, scale=0.5)
        u = random_trajectory(grid, n, rng, scale=0.5)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                sym = float(np.einsum(
                    "ki,ki->", pb.cost_gradient(P, grid, x.values), u.values))
                fd = (
                    pb.evaluate_cost(P, Trajectory(grid, x.values + eps * u.values))
                    - pb.evaluate_cost(P, Trajectory(grid, x.values - eps * u.values))
                ) / (2 * eps)
                fd_fine = (
                    pb.evaluate_cost(P, Trajectory(grid, x.values + 0.25 * eps * u.values))
                    - pb.evaluate_cost(P, Trajectory(grid, x.values - 0.25 * eps * u.values))
                ) / (0.5 * eps)
        except ex.ExprDomainError:
            continue
        if not (np.isfinite(sym) and np.isfinite(fd) and np.isfinite(fd_fine)):
            continue
        if abs(fd - fd_fine) > 1e-7 * (1.0 + abs(fd)):
            continue  # truncation dominates: the difference quotient itself
            # cannot certify to 1e-6 at this draw
        assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym))
        checked += 1

    # linearization order for a quadratic drift: remainder is exactly
    # second order, so the log-log slope sits at 2
    P = pb.ProblemSpec(
        n=1,
        T=1.0,
        phi=ex.parse("0", 1, ex.PROFILE_TERMINAL),
        theta=ex.parse("v1^2/2", 1, ex.PROFILE_RUNNING),
        g=[ex.parse("x1^2", 1, ex.PROFILE_DRIFT)],
        omega1=cx.Reals(1),
        omega2=cx.Reals(2),
    )
    grid = Grid(1.0, 40)
    x = random_trajectory(grid, 1, rng, scale=0.5)
    d = random_trajectory(grid, 1, rng)
    d = (1.0 / fs.ac_norm(d)) * d.values
    sizes = [1e-1, 1e-2, 1e-3, 1e-4]
    defects = []
    for s in sizes:
        U = s * d
        W, E = pb.finite_constraint_image(P, grid, x.values)
        DW, DE = pb.constraint_derivative(P, grid, x.values, U)
        W1, E1 = pb.finite_constraint_image(P, grid, x.values + U)
        dv = W1 - W - DW
        de = E1 - E - DE
        defects.append(
            float(grid.h * np.linalg.norm(dv, axis=1).sum() + np.linalg.norm(de))
        )
    slope = fit_order(sizes, defects)
    assert slope >= 1.9, (sizes, defects, slope)
    _report("derivative oracles (100 triples + Taylor slope)", started, 30.0)


def test_acceptance_normal_cone_formula():
    started = time.time()
    rng = np.random.default_rng(808)
    box = cx.Box([-1.0, 0.0], [1.0, 2.0])
    ball = cx.Ball([0.0, 0.0], 1.0)
    poly = cx.Polyhedron(
        [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0]
    )
    checked = 0
    while checked < 1000:
        mode = checked % 6
        if mode in (0, 1):  # box: face and interior points
            if mode == 0:
                y = np.array([1.0, rng.uniform(0.5, 1.5)])  # face of coord 1
                member = np.array([rng.uniform(0.0, 3.0), 0.0])
                non_member = np.array([-1.0, 0.0])  # inward
            else:
                y = np.array([rng.uniform(-0.9, 0.9), rng.uniform(0.1, 1.9)])
                member = np.zeros(2)  # interior: N = {0}
                non_member = np.array([0.5, 0.0])
            S = box
        elif mode in (2, 3):  # ball: boundary and interior
            if mode == 2:
                angle = rng.uniform(0, 2 * np.pi)
                y = np.array([np.cos(angle), np.sin(angle)])
                member = rng.uniform(0.0, 2.0) * y
                tangent = np.array([-y[1], y[0]])
                non_member = y + tangent  # tilted off the radial ray
            else:
                y = 0.5 * np.array([np.cos(1.0), np.sin(1.0)])
                member = np.zeros(2)
                non_member = np.array([0.3, 0.0])
            S = ball
        else:  # polyhedron: active-face combinations and interior
            if mode == 4:
                y = np.array([0.0, rng.uniform(0.0, 1.0)])  # first facet active
                coeff = rng.uniform(0.0, 2.0)
                member = coeff * np.array([-1.0, 0.0])
                if y[1] < 1e-9:  # corner: second facet active too
                    member = member + rng.uniform(0.0, 2.0) * np.array([0.0, -1.0])
                non_member = np.array([1.0, 0.0])  # inward
            else:
                y = np.array([0.25, 0.25])
                member = np.zeros(2)
                non_member = np.array([0.0, -0.4])
            S = poly
        assert cx.normal_cone_residual(S, y, member) <= 1e-8
        assert cx.normal_cone_residual(S, y, non_member) > 1e-6
        checked += 1
    _report("normal-cone formula (10^3 constructed pairs)", started, 10.0)


def test_acceptance_fundamental_lemma():
    started = time.time()
    for degree in range(4):
        errors = []
        hs = []
        for N in (20, 40, 80):
            grid = Grid(1.0, N)
            t = grid.cell_lefts()
            l = CellPath(grid, (3.0 * t**2 + 1.0 + 0.5 * t)[:, None])
            a = np.array([0.25])
            b = -(a + grid.h * l.values.sum(axis=0))
            qbar, rep = fs.reconstruct_ac(
                CellPath(grid, np.zeros((N, 1))), l, a, b
            )
            assert rep.r_T <= 1e-13
            defect = fs.weak_identity_defect(qbar, l, a, b, degree=degree)
            assert defect <= 2.0 * grid.h**2 * (1.0 + degree**2)
            errors.append(defect)
            hs.append(grid.h)
        if degree >= 2:  # degrees 0-1 are integrated exactly
            assert fit_order(hs, errors) >= 1.8, (degree, hs, errors)
    _report("fundamental lemma (defect <= C h^2, order >= 1.8)", started, 5.0)


def test_acceptance_analytic_kkt_reproduction():
    started = time.time()
    # pinned line at N = 200
    p1 = get_case("p1")
    r1 = sv.solve(p1.problem, sv.SolverConfig(grid_N=200))
    assert r1.converged
    assert np.abs(r1.x.values[:, 0] - r1.x.grid.nodes()).max() <= 1e-3
    assert abs(r1.objective - 0.5) <= 1e-3

    # capped speed at N = 200 with the full certificate at default tolerances
    p2 = get_case("p2")
    r2 = sv.solve(p2.problem, sv.SolverConfig(grid_N=200))
    assert r2.converged
    assert np.abs(r2.x.values[:, 0] - r2.x.grid.nodes()).max() <= 1e-2
    assert np.abs(r2.mu.values - 1.0).max() <= 5e-2
    rep = opt.certify(p2.problem, r2.x, r2.mu, r2.s1, r2.s2)
    assert rep.passed

    # closed-form bundles certify at 1e-8 on N = 1000
    strict = opt.Tolerances(
        feasibility=1e-8, el=1e-8, wp_gap=1e-8, transversality=1e-8,
        mu_membership=1e-8, support_zero=1e-10,
    )
    for cid in ("p1", "p2"):
        case = get_case(cid)
        grid = Grid(case.problem.T, 1000)
        rep = opt.certify(
            case.problem,
            case.x_star(grid),
            case.mu_star(grid),
            case.s1_star,
            case.s2_star,
            tolerances=strict,
        )
        assert rep.passed, (cid, rep.to_dict())
    _report("analytic KKT reproduction (solves + certificates)", started, 120.0)


def test_acceptance_state_cost_instance():
    started = time.time()
    case = get_case("p3")
    grid = Grid(1.0, 200)
    x = case.x_star(grid)
    rep = opt.certify(
        case.problem, x, case.mu_star(grid), case.s1_star, case.s2_star
    )
    assert rep.passed
    # the reduced endpoint inclusion is reported with value defect 0: the
    # integrated running-cost gradient plus the terminal gradient lands in
    # the sum of the (negated) endpoint normal cones
    assert rep.integrated_endpoint_residual is not None
    assert rep.integrated_endpoint_residual <= 1e-8
    text = rep.render_text()
    assert "integrated endpoint inclusion" in text
    # adjoint reconstructed from the zero density is identically zero
    p = opt.reconstruct_adjoint(case.problem, x, case.mu_star(grid))
    assert np.allclose(p.values, 0.0)
    _report("reduced endpoint-inclusion instance", started, 5.0)


def test_acceptance_multiplier_bound():
    started = time.time()
    case = get_case("p2")
    grid = Grid(1.0, 50)
    xbar = case.x_star(grid)
    probe = cq.probe_kappa(
        case.problem, xbar, samples=50, delta=0.1, seed=1,
        cfg=sv.SolverConfig(grid_N=50, outer_iters=40),
    )
    assert probe.kappa_hat is not None
    ell = pb.estimate_lipschitz(case.problem, xbar, samples=200, seed=0)
    assert ell.provenance == "estimated"
    rep = opt.certify(
        case.problem,
        xbar,
        case.mu_star(grid),
        case.s1_star,
        case.s2_star,
        kappa=probe.kappa_hat,
        kappa_provenance="probed lower bound",
    )
    assert rep.bound_satisfied is True
    assert rep.lambda_norm <= rep.kappa_ell_bound
    text = rep.render_text()
    assert "kappa=" in text and "ell=" in text
    assert "probed lower bound" in text and "estimated" in text
    print(
        f"    lambda_norm={rep.lambda_norm:.4f} kappa_hat={rep.kappa:.4f} "
        f"ell_hat={rep.ell:.4f} bound={rep.kappa_ell_bound:.4f}"
    )
    _report("multiplier bound (probed kappa, estimated ell)", started, 60.0)


def test_acceptance_negative_controls(tmp_path, monkeypatch):
    started = time.time()
    monkeypatch.chdir(tmp_path)

    def write_problem(cid):
        case = get_case(cid)
        jsonio.atomic_write_json(f"{cid}.json", jsonio.problem_to_json(case.problem))
        return case

    def write_traj(name, grid, values):
        jsonio.atomic_write_json(
            name, jsonio.trajectory_to_json(Trajectory(grid, values))
        )

    def write_mult(name, grid, mu_values, s1, s2):
        mu = CellPath(grid, mu_values)
        jsonio.atomic_write_json(name, jsonio.multipliers_to_json(mu, s1, s2))

    grid = Grid(1.0, 200)
    t = grid.nodes()
    tc = grid.cell_lefts()
    N = grid.N

    # control table: (case, trajectory values, mu values, intended failing
    # condition, conditions that must still pass when the corruption is
    # provably single-condition)
    controls = []
    # pinned line: a parabola with the right endpoints breaks the adjoint
    # equation; a constant density breaks membership on the whole space;
    # a tilted density breaks the adjoint equation
    controls.append(("p1", (t**2)[:, None], np.zeros((N, 1)), "el", ()))
    controls.append(("p1", t[:, None], np.full((N, 1), 0.5), "mu_membership", ()))
    controls.append(("p1", t[:, None], (0.75 * tc)[:, None], "el", ()))
    # capped speed: speeding is infeasible; shifting the adjoint breaks
    # exactly transversality; an inward density breaks membership
    controls.append(("p2", (2.0 * t)[:, None], np.ones((N, 1)), "feasibility", ()))
    controls.append(
        ("p2", t[:, None], np.full((N, 1), 1.5), "transversality",
         ("el", "wp", "mu_membership", "feasibility"))
    )
    controls.append(("p2", t[:, None], np.full((N, 1), -1.0), "mu_membership", ()))
    # state cost: a shifted flat curve breaks the adjoint equation (its
    # cell-0 defect h * theta_x sits in the node-0 row, so transversality
    # sees it too); leaving the endpoint box breaks feasibility; a nonzero
    # density on the whole space breaks membership
    controls.append(
        ("p3", np.full((N + 1, 1), 0.5), np.zeros((N, 1)), "el",
         ("wp", "mu_membership", "feasibility"))
    )
    controls.append(("p3", np.full((N + 1, 1), -0.5), np.zeros((N, 1)),
                     "feasibility", ()))
    controls.append(("p3", np.zeros((N + 1, 1)), np.ones((N, 1)),
                     "mu_membership", ()))
    # drift window: drifting up leaves the window; an inward density breaks
    # membership; a constant density tilts the adjoint equation
    controls.append(("p4", (1.0 + t)[:, None], np.zeros((N, 1)),
                     "feasibility", ()))
    controls.append(("p4", np.ones((N + 1, 1)), np.full((N, 1), -1.0),
                     "mu_membership", ()))
    controls.append(("p4", np.ones((N + 1, 1)), np.full((N, 1), 0.3), "el", ()))

    for idx, (cid, xvals, muvals, intended, must_pass) in enumerate(controls):
        case = write_problem(cid)
        traj_name = f"ctrl{idx}.json"
        mult_name = f"ctrl{idx}.mult.json"
        write_traj(traj_name, grid, xvals)
        # endpoint multipliers consistent with the corrupted density so the
        # intended condition is the discriminating one
        P = case.problem
        x = Trajectory(grid, xvals)
        mu = CellPath(grid, muvals)
        p = opt.reconstruct_adjoint(P, x, mu)
        gx0, gxT = P.phi_gradients(x.values[0], x.values[-1])
        s1 = p.values[0] - gx0
        s2 = -p.values[-1] - gxT
        write_mult(mult_name, grid, muvals, s1, s2)
        code = main([
            "verify", f"{cid}.json", traj_name, "--multipliers", mult_name,
            "--report", f"ctrl{idx}.cert.json",
        ])
        assert code == 1, (cid, intended)
        report = jsonio.load_json(f"ctrl{idx}.cert.json")
        assert report["verdicts"][intended] == "fail", (cid, intended, report)
        for cond in must_pass:
            assert report["verdicts"][cond] == "pass", (cid, cond, report)
    _report("negative controls (12 corrupted bundles, exit 1)", started, 60.0)
