"""Verification harness: the model identities checked end to end.

Five checks, each with a quantitative threshold:

* ``mass``      -- the phase mean is constant along any run (scheme-exact);
* ``energy``    -- with zero force the discrete total energy decays
                   monotonically at small dt, and the integrated
                   energy-balance defect is first order in dt;
* ``frechet``   -- forward differencing of the state map against the
                   sensitivity solver: e(eps) = ||S(u+eps h)-S(u)-eps psi||/eps
                   shrinks linearly in eps down to the discretization floor;
* ``duality``   -- the adjoint/sensitivity pairing
                   int_Q h . va = alpha1 int_Q (phi-phi_Q) psi
                                + alpha2 int_Omega (phi(T)-phi_Omega) psi(T);
* ``gradient``  -- the reduced gradient against central finite differences
                   of the reduced cost along seeded random directions.

Random directions (``control.smooth_direction``) are a smooth, low-mode
cosine profile of unit sup norm, with coefficients drawn from a seeded
generator and shaped to vanish on boundary normal faces, times a smooth
modulation in time; because the continuum field is fixed by the seed, the
same direction can be re-sampled on a refined grid for convergence
studies.  A direction, and each perturbed control eps*h about the zero
control, is a ``StepSeries``: step n is formed where a solve or a sum reads
it, so no check holds a whole direction or perturbation series.

The unforced base work is solved once per problem and shared by the
checks: mass, energy, and the Frechet, duality and gradient bases read
``ControlProblem.base``, duality and gradient its ``base_adjoint``, and
Frechet and duality the seeded ``ControlProblem.sensitivity``.  Each check
reports the same numbers whether it runs alone or after the others.
Frechet and gradient each batch their perturbed solves into one forward
sweep (``ControlProblem.simulate_many``).  The refined duality problem is
read by no other check, so its adjoint and sensitivity sweeps reduce each
va and psi to its pairing terms as they form it (a per-node ``read`` map):
only its base trajectory is cached, and neither series is ever held.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjoint import solve_adjoint
from .control import ControlProblem, evaluate_cost, gradient_step, inner_q, ordered_sum
from .control import smooth_direction
from .grid import FaceField, ScalarField, face_inner, scalar_inner
from .linearized import solve_linearized
from .state import StepSeries, Trajectory, energy_balance_residual, simulate, trapezoid_weights

FRECHET_EPSILONS = (1e-1, 5e-2, 2.5e-2)
FRECHET_FLOOR_EPSILON = 1e-3
GRADIENT_DIRECTIONS = 3
GRADIENT_EPSILON = 1e-2


@dataclass
class VerifyReport:
    """Outcome of one identity check."""

    name: str
    passed: bool
    values: dict = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        head = f"[{status}] {self.name}"
        return "\n".join([head] + [f"    {ln}" for ln in self.lines])


# ---------------------------------------------------------------------------
# space-time norms


def phi_l2q_norm(fields: list[ScalarField], dt: float) -> float:
    """Trapezoid-in-time L2(Q) norm of a node series of cell fields."""
    total = 0.0
    for f, w in zip(fields, trapezoid_weights(len(fields) - 1)):
        total += w * dt * scalar_inner(f, f)
    return float(np.sqrt(total))


def _perturbations(h: StepSeries, epsilons) -> list[StepSeries]:
    """The controls eps*h about the zero control, one per eps, each formed
    step by step as ``eps*h_n``."""
    return [StepSeries(h.grid, len(h), lambda n, e=e: e * h[n]) for e in epsilons]


# ---------------------------------------------------------------------------
# the identity checks


def verify_mass(problem: ControlProblem) -> VerifyReport:
    means = np.array([s.phi.mean() for s in problem.base])
    dev = float(np.abs(means - means[0]).max())
    passed = dev <= 1e-12
    return VerifyReport(
        "mass conservation", passed, {"max_deviation": dev},
        [f"max |mean(phi(t)) - mean(phi_0)| = {dev:.3e} (threshold 1e-12)"],
    )


def verify_energy(problem: ControlProblem) -> VerifyReport:
    """Unforced decay of kinetic + free energy, and O(dt) balance defect."""
    def measure(traj: Trajectory) -> tuple[float, float]:
        total = traj.diagnostics["kinetic"] + traj.diagnostics["energy"]
        max_increase = float(np.diff(total).max(initial=-np.inf))
        return max_increase, energy_balance_residual(traj)

    traj1 = problem.base
    inc1, res1 = measure(traj1)
    inc2, res2 = measure(
        simulate(problem.v0, problem.phi0, None, problem.time.refine(), problem.params)
    )
    scale = abs(traj1.diagnostics["energy"][0]) + abs(traj1.diagnostics["kinetic"][0])
    mono_tol = 1e-11 * max(scale, 1.0)
    ratio = abs(res1) / max(abs(res2), 1e-300)
    passed = inc1 <= mono_tol and inc2 <= mono_tol and 1.7 <= ratio <= 2.3
    return VerifyReport(
        "energy law", passed,
        {"max_increase": inc1, "residual": res1, "residual_half_dt": res2, "ratio": ratio},
        [
            f"max energy increase per step = {inc1:.3e} (tolerance {mono_tol:.1e})",
            f"balance residual: {res1:.6e} (dt) vs {res2:.6e} (dt/2), ratio {ratio:.3f} in [1.7, 2.3]",
        ],
    )


def verify_frechet(problem: ControlProblem, seed: int = 0) -> VerifyReport:
    """Linear shrink of the first-order Taylor defect of the state map."""
    grid, time, base = problem.grid, problem.time, problem.base
    h, lin = problem.sensitivity(seed)

    def defect(eps: float, pert: Trajectory) -> float:
        diffs = [
            ScalarField(grid, p.phi.values - b.phi.values - eps * psi.values)
            for p, b, psi in zip(pert, base, lin)
        ]
        return phi_l2q_norm(diffs, time.dt) / eps

    eps_list = list(FRECHET_EPSILONS)
    all_eps = eps_list + [FRECHET_FLOOR_EPSILON]
    *errors, floor = map(defect, all_eps, problem.simulate_many(_perturbations(h, all_eps)))
    ratios = [errors[i] / max(errors[i + 1], 1e-300) for i in range(len(errors) - 1)]
    ok = all(
        r >= 1.8 or errors[i + 1] <= 5.0 * floor for i, r in enumerate(ratios)
    )
    return VerifyReport(
        "frechet differentiability", ok,
        {"epsilons": eps_list, "errors": errors, "ratios": ratios, "floor": floor},
        [
            "e(eps) = " + ", ".join(f"{e:.4e}" for e in errors),
            "ratios per halving = " + ", ".join(f"{r:.3f}" for r in ratios)
            + f" (need >= 1.8 until within 5x floor {floor:.3e})",
        ],
    )


def duality_gap(problem: ControlProblem, seed: int = 0, shared: bool = True) -> dict:
    """Both sides of the adjoint/sensitivity pairing for a seeded direction.

    Each side is a sum of per-node terms.  With ``shared`` the terms are read
    off the problem's cached va series and seeded psi series, which the
    Frechet and gradient checks read too.  Otherwise the adjoint and
    sensitivity sweeps reduce each node to its terms as they form it, so
    neither series is held; the numbers are the same, bit for bit.
    """
    time, cost, base = problem.time, problem.cost, problem.base
    dt, n_steps = time.dt, time.n_steps
    weights = trapezoid_weights(n_steps)
    h = problem.sensitivity(seed)[0] if shared else smooth_direction(problem.grid, time, seed)

    def lhs_term(n: int, va: FaceField) -> float:  # no step of h reaches t_N
        return dt * face_inner(h[n], va) if n < n_steps else 0.0

    def rhs_terms(k: int, psi: ScalarField) -> tuple[float, float]:
        """The running tracking term of node k and, at k = N, the terminal one."""
        running = cost.alpha1 * weights[k] * dt * scalar_inner(base[k].phi - cost.phi_q[k], psi)
        if k < n_steps:
            return running, 0.0
        return running, cost.alpha2 * scalar_inner(base.final.phi - cost.phi_omega, psi)

    if shared:
        lhs_terms = [lhs_term(n, va) for n, va in enumerate(problem.base_adjoint)]
        rhs_nodes = [rhs_terms(k, psi) for k, psi in enumerate(problem.sensitivity(seed)[1])]
    else:
        lhs_terms = solve_adjoint(base, cost, lhs_term)
        rhs_nodes = solve_linearized(base, h, rhs_terms)

    # each side summed in ascending node order; the rhs is the trapezoid in
    # time of the cost quadrature, from the terminal term on (psi(0) = 0)
    lhs = ordered_sum(lhs_terms[:n_steps])
    rhs = rhs_nodes[n_steps][1]
    for running, _ in rhs_nodes[1:]:
        rhs += running
    mism = abs(lhs - rhs) / max(abs(lhs) + abs(rhs), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "mismatch": mism}


def verify_duality(
    problem: ControlProblem,
    refined_problem: ControlProblem | None = None,
    seed: int = 0,
) -> VerifyReport:
    gap = duality_gap(problem, seed)
    values = dict(gap)
    lines = [
        f"lhs = {gap['lhs']:.8e}, rhs = {gap['rhs']:.8e}",
        f"relative mismatch = {gap['mismatch']:.3e} (threshold 1e-2)",
    ]
    passed = gap["mismatch"] <= 1e-2
    if refined_problem is not None:
        fine = duality_gap(refined_problem, seed, shared=False)
        values["mismatch_refined"] = fine["mismatch"]
        lines.append(
            f"refined mismatch = {fine['mismatch']:.3e} (must shrink strictly)"
        )
        passed = passed and fine["mismatch"] < gap["mismatch"]
    return VerifyReport("adjoint duality", passed, values, lines)


def verify_gradient(problem: ControlProblem, seed: int = 0) -> VerifyReport:
    """Adjoint gradient against central finite differences of the reduced cost."""
    grid, time, cost = problem.grid, problem.time, problem.cost
    zero, adj = FaceField.zeros(grid), problem.base_adjoint[:time.n_steps]
    dt, eps = time.dt, GRADIENT_EPSILON

    dirs = [smooth_direction(grid, time, seed + 1000 * i + 7)
            for i in range(GRADIENT_DIRECTIONS)]
    pm = [u for h in dirs for u in _perturbations(h, (eps, -eps))]  # one batch
    costs = [evaluate_cost(traj, cost)[0] for traj in problem.simulate_many(pm)]

    adj_dirs, fd_dirs, rel_errors = [], [], []
    for i, h in enumerate(dirs):
        fd = (costs[2 * i] - costs[2 * i + 1]) / (2.0 * eps)
        ad = inner_q((gradient_step(zero, va_n, cost.alpha3) for va_n in adj), h, dt)  # at u = 0
        adj_dirs.append(ad)
        fd_dirs.append(fd)
        rel_errors.append(abs(ad - fd) / max(abs(fd), 1e-300))

    a = np.array(adj_dirs)
    f = np.array(fd_dirs)
    cosine = float(a @ f / max(np.linalg.norm(a) * np.linalg.norm(f), 1e-300))
    max_rel = float(max(rel_errors))
    passed = cosine >= 0.999 and max_rel <= 2e-2
    return VerifyReport(
        "reduced gradient", passed,
        {"cosine": cosine, "rel_errors": rel_errors, "adjoint": adj_dirs, "fd": fd_dirs},
        [
            f"cosine similarity over {GRADIENT_DIRECTIONS} directions = {cosine:.6f} (need >= 0.999)",
            "per-direction relative magnitude errors = "
            + ", ".join(f"{e:.3e}" for e in rel_errors)
            + " (need <= 2e-2)",
        ],
    )


# The identity checks by name, in report order: (problem, seed, refined problem)
# -> report.  The lambdas look the checks up when called, so a rebinding of
# the module functions (e.g. by a tracer) is seen.
CHECKS = {
    "mass": lambda problem, seed, refined: verify_mass(problem),
    "energy": lambda problem, seed, refined: verify_energy(problem),
    "frechet": lambda problem, seed, refined: verify_frechet(problem, seed),
    "duality": lambda problem, seed, refined: verify_duality(problem, refined, seed),
    "gradient": lambda problem, seed, refined: verify_gradient(problem, seed),
}


def verify(
    problem: ControlProblem,
    which: str,
    seed: int = 0,
    refined_problem: ControlProblem | None = None,
) -> VerifyReport:
    """Run one named identity check and report pass/fail with its numbers."""
    if which not in CHECKS:
        raise ValueError(f"unknown check '{which}'")
    return CHECKS[which](problem, seed, refined_problem)
