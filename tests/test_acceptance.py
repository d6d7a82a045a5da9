"""Acceptance suite: the eleven exit criteria at desk scale.

Default configuration: 64x64 cells on a 16x16 box, T = 0.1, dt = 1e-3
(tighter steps where a criterion demands them).  Each test prints one
pass/fail line; run with ``pytest -s tests/test_acceptance.py`` to see
them.  The whole module takes a few minutes.
"""

import numpy as np
import pytest

from nsch import (
    FaceField,
    GridSpec,
    PhysParams,
    ScalarField,
    TimeSpec,
    helmholtz_poly_solve,
    mu_of_phi,
    ns_step,
    poisson_neumann,
    simulate,
)
from nsch.cli import main
from nsch.config import RunConfig, build_problem, refine_config
from nsch.control import (
    ControlBounds,
    OptimizerOptions,
    StopReason,
    norm_q,
    optimize,
    project_admissible,
)
import nsch.verification as verification

import oracles
from conftest import apply_poly_laplacian, l2_norm, max_abs, random_face, stack_faces

GRID_N = 64
BOX = 16.0
T_FINAL = 0.1
DT = 1e-3


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num:>2}: {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def base_cfg(**extra):
    values = {
        "grid.nx": GRID_N, "grid.ny": GRID_N, "grid.lx": BOX, "grid.ly": BOX,
        "time.T": T_FINAL, "time.dt": DT,
        "init.preset": "bubble", "init.swirl": 1.0,
        "cost.target": "stripe",
    }
    values.update(extra)
    return RunConfig(values)


@pytest.fixture(scope="module")
def identity_problem():
    """Bubble run with nonzero flow, contrast target for the adjoint checks."""
    return build_problem(base_cfg())


def test_criterion_01_mass_conservation(identity_problem):
    rep = verification.verify_mass(identity_problem)
    report(
        1, "mass conservation", rep.passed,
        f"max |mean(phi) - mean(phi0)| = {rep.values['max_deviation']:.3e} <= 1e-12",
    )


def test_criterion_02_equilibrium_fixed_point():
    grid = GridSpec(GRID_N, GRID_N, BOX, BOX)
    params = PhysParams()
    traj = simulate(
        FaceField.zeros(grid), ScalarField.full(grid, 1.0),
        None, TimeSpec(T_FINAL, DT), params,
    )
    dev = 0.0
    for n, s in enumerate(traj):
        mu, omega = mu_of_phi(s.phi, params)
        dev = max(
            dev,
            float(np.abs(s.phi.values - 1.0).max()),
            max_abs(s.v),
            max_abs(mu),
            max_abs(omega),
        )
        if n < traj.time.n_steps:
            # a node stores no pressure: the step out of node n forms p_{n+1}
            _, p = ns_step(s.v, s.phi, mu, None, DT, params)
            dev = max(dev, max_abs(p))
    report(
        2, "equilibrium fixed point", dev <= 1e-13,
        f"max per-field deviation over {traj.time.n_steps} steps = {dev:.3e} <= 1e-13",
    )


def test_criterion_03_energy_law():
    problem = build_problem(base_cfg(**{"time.dt": 5e-4}))
    rep = verification.verify_energy(problem)
    report(
        3, "energy decay and first-order balance", rep.passed,
        f"max increase {rep.values['max_increase']:.2e}, "
        f"residual ratio {rep.values['ratio']:.3f} in [1.7, 2.3]",
    )


def test_criterion_04_solver_exactness(rng):
    grid = GridSpec(GRID_N, GRID_N, BOX, BOX)
    f = ScalarField(grid, rng.standard_normal((GRID_N, GRID_N)))
    x = helmholtz_poly_solve(1.0, 0.0, 2.0 * DT, DT, f)
    res_h = l2_norm(apply_poly_laplacian(1.0, 0.0, 2.0 * DT, DT, x) - f) / l2_norm(f)

    g = ScalarField(grid, f.values - f.values.mean())
    from nsch.grid import laplacian

    p = poisson_neumann(ScalarField(grid, -laplacian(g).values))
    res_p = l2_norm(
        apply_poly_laplacian(0.0, 1.0, 0.0, 0.0, p)
        - ScalarField(grid, -laplacian(g).values)
    ) / max(l2_norm(g), 1e-300)

    # transpose identity of the discrete gradient/divergence pair on 6x6
    nx = ny = 6
    hx = hy = 1.0 / 6.0
    gmat = oracles.grad_matrix(nx, ny, hx, hy)
    dmat = oracles.div_matrix(nx, ny, hx, hy)
    bx = np.zeros((nx + 1, ny), dtype=bool)
    bx[1:-1, :] = True
    by = np.zeros((nx, ny + 1), dtype=bool)
    by[:, 1:-1] = True
    interior = np.concatenate([bx.ravel(), by.ravel()])
    dual_err = float(np.abs(gmat[interior] + dmat.T[interior]).max())

    passed = res_h <= 1e-10 and res_p <= 1e-10 and dual_err <= 1e-12
    report(
        4, "solver exactness", passed,
        f"helmholtz residual {res_h:.2e}, poisson residual {res_p:.2e}, "
        f"grad/div transpose defect {dual_err:.2e}",
    )


def test_criterion_05_frechet_property(identity_problem):
    rep = verification.verify_frechet(identity_problem, seed=0)
    ratios = ", ".join(f"{r:.3f}" for r in rep.values["ratios"])
    report(
        5, "Frechet differentiability", rep.passed,
        f"defect ratios per eps-halving = {ratios} (>= 1.8 until 5x floor "
        f"{rep.values['floor']:.2e})",
    )


def test_criterion_06_duality_identity(identity_problem):
    refined = build_problem(refine_config(base_cfg()))
    rep = verification.verify_duality(identity_problem, refined, seed=0)
    report(
        6, "adjoint duality identity", rep.passed,
        f"mismatch {rep.values['mismatch']:.3e} <= 1e-2, refined "
        f"{rep.values['mismatch_refined']:.3e} strictly smaller",
    )


def test_criterion_07_gradient_check(identity_problem):
    rep = verification.verify_gradient(identity_problem, seed=0)
    errs = ", ".join(f"{e:.2e}" for e in rep.values["rel_errors"])
    report(
        7, "reduced gradient vs finite differences", rep.passed,
        f"cosine {rep.values['cosine']:.6f} >= 0.999, magnitude errors {errs} <= 2e-2",
    )


@pytest.fixture(scope="module")
def optimizer_run():
    cfg = base_cfg(**{"cost.target": "tracking", "cost.alpha3": 1e-7})
    problem = build_problem(cfg)
    options = OptimizerOptions(tol=1e-3, max_iter=120)
    u_opt, rep = optimize(problem, None, options)
    return problem, u_opt, rep


def test_criterion_08_optimizer(optimizer_run):
    problem, u_opt, rep = optimizer_run
    accepted = [r for r in rep.rows if r[8] == 1]
    j = np.array([r[1] for r in accepted])
    iters = np.array([r[0] for r in accepted])
    monotone = bool((np.diff(j) <= 0).all())
    within_50 = j[iters <= 50]
    tenfold = within_50[-1] <= j[0] / 10.0
    residual = accepted[-1][6]
    target = 1e-3 * rep.rows[0][5]
    stationary = residual <= target
    passed = monotone and tenfold and stationary
    report(
        8, "projected-gradient optimizer", passed,
        f"monotone={monotone}, J(50)/J(0) = {within_50[-1] / j[0]:.2e} <= 0.1, "
        f"residual {residual:.2e} <= 1e-3*|g0| = {target:.2e} "
        f"({rep.reason} after {len(accepted) - 1} accepted steps)",
    )


def test_optimizer_forward_solve_budget(optimizer_run):
    # the criterion-8 run, held to a forward-solve budget; it shares the
    # module fixture because a second run would double the suite's cost
    _, _, rep = optimizer_run
    assert rep.reason is StopReason.CONVERGED
    assert rep.n_simulations <= 60


def test_criterion_09_projection_properties(optimizer_run, rng):
    problem, u_opt, rep = optimizer_run
    grid = GridSpec(GRID_N, GRID_N, BOX, BOX)
    bounds = ControlBounds(-1.0, 1.0)

    # idempotence exact
    u = stack_faces([random_face(grid, rng, scale=3.0)])
    p1 = project_admissible(u, bounds)
    p2 = project_admissible(p1, bounds)
    idem = max(
        float(np.abs(a.x - b.x).max() + np.abs(a.y - b.y).max())
        for a, b in zip(p1, p2)
    )

    # nonexpansiveness on 1000 seeded pairs (small grid keeps it fast)
    small = GridSpec(8, 8, 1.0, 1.0)
    pair_rng = np.random.default_rng(2024)
    expansive = 0
    for _ in range(1000):
        a = stack_faces([random_face(small, pair_rng, scale=2.0)])
        b = stack_faces([random_face(small, pair_rng, scale=2.0)])
        pa = project_admissible(a, bounds)
        pb = project_admissible(b, bounds)
        if norm_q(pa - pb, 1.0) > norm_q(a - b, 1.0) + 1e-14:
            expansive += 1

    violation = rep.max_bound_violation
    passed = idem == 0.0 and expansive == 0 and violation == 0.0
    report(
        9, "projection properties", passed,
        f"idempotence defect {idem:.1e}, expansive pairs {expansive}/1000, "
        f"max optimizer bound violation {violation:.1e}",
    )


def test_criterion_10_constant_field_chemical_potential():
    grid = GridSpec(GRID_N, GRID_N, BOX, BOX)
    params = PhysParams(eta=0.0)
    mu, _ = mu_of_phi(ScalarField.full(grid, 2.0), params)
    dev = float(np.abs(mu.values - 66.0).max())
    report(
        10, "constant-field chemical potential", dev <= 1e-12,
        f"max |mu - 66| = {dev:.3e} <= 1e-12 (analytic (3c^2-1+eta)(c^3-c))",
    )


def test_criterion_11_guardrails(tmp_path, capsys):
    cfg_text = (
        f"grid.nx = 12\ngrid.ny = 12\ngrid.lx = {BOX}\ngrid.ly = {BOX}\n"
        "time.T = 0.004\ntime.dt = 1e-3\n"
    )
    p1 = tmp_path / "mob.cfg"
    p1.write_text(cfg_text + "physics.mobility_amp = 0.5\n")
    rc1 = main(["optimize", "--config", str(p1), "--out", str(tmp_path / "o1")])
    err1 = capsys.readouterr().err
    mob_ok = rc1 == 2 and "constant unit mobility" in err1

    p2 = tmp_path / "zero.cfg"
    p2.write_text(cfg_text + "cost.alpha1 = 0\ncost.alpha2 = 0\ncost.alpha3 = 0\n")
    rc2 = main(["optimize", "--config", str(p2), "--out", str(tmp_path / "o2")])
    err2 = capsys.readouterr().err
    zero_ok = rc2 == 2 and "A6" in err2

    report(
        11, "configuration guardrails", mob_ok and zero_ok,
        f"nonconstant mobility -> exit {rc1} citing the constant-mobility "
        f"precondition; all-zero weights -> exit {rc2} citing A6",
    )
