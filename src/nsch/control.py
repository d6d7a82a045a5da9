"""Cost evaluation, reduced gradient, box projection and projected-gradient
descent for the tracking control problem.

The cost is

    J(u) = alpha1/2 int_Q |phi - phi_Q|^2 + alpha2/2 int_Omega |phi(T) - phi_Omega|^2
         + alpha3/2 int_Q |u|^2,

with trapezoid-in-time, cell-sum-in-space quadrature for the tracking term
and the exact integral of the piecewise-constant control for the control
term.  A control, like each direction and gradient, is one ``FaceField``
whose leading axis is the step: ``u[n]`` acts on (t_n, t_{n+1}).  The
reduced gradient is the series alpha3*u_n + va(t_n): the
backward state at t_n already accounts for the transposed dynamics of the
step (t_n, t_{n+1}) on which u_n acts, so the left-endpoint value is the
consistent representative of int h . va over the step (checked against
per-face derivatives of the discrete cost in the test suite).

The admissible set is a componentwise box owned by the ``ControlProblem``
(a control field carries no bounds); its L2 projection is the pointwise
clamp (boundary normal faces are not control degrees of freedom and stay
pinned at zero).  First-order stationarity is monitored through the
unit-step fixed-point residual ||u - P(u - g)||_{L2(Q)}.

The optimizer is spectral projected gradient (Barzilai & Borwein, IMA J.
Numer. Anal. 8, 1988; Birgin, Martinez & Raydan, SIAM J. Optim. 10, 2000):
each line search starts from the BB2 step <du, dg>_Q / <dg, dg>_Q of the
last iterate pair, capped at step0 = 1/alpha3 (1 when alpha3 = 0).  The
first line search starts from step0, and one after a pair with
<du, dg>_Q <= 0 from twice the last accepted step, capped at step0.
Trials are halved until the Armijo test on the projected step,
J(u_s) <= J(u) - c1 <g, u - u_s>_Q, holds.

The seeded smooth directions are built here too.  Each is separable,
profile(x) * mod(t_n), so ``smooth_direction`` holds the profile (one face
field) and the modulation (n_steps numbers) and forms step n where it is
read (a ``StepSeries``); ``smooth_control_series`` stacks it into a stored
series, the tracking targets' reference control.  A ``ControlProblem``
keeps its unforced trajectory, its adjoint (the va series) and its seeded
sensitivities (the direction and its psi series), each solved once on
first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .adjoint import require_unit_mobility, solve_adjoint
from .constitutive import CostSpec, PhysParams
from .errors import ConfigError
from .grid import FaceField, GridSpec, ScalarField, face_inner, scalar_inner
from .linearized import solve_linearized
from .state import (
    State, StepSeries, TimeSpec, Trajectory, check_steps, simulate, trapezoid_weights,
)


@dataclass(frozen=True)
class ControlBounds:
    """Box bounds u_min <= u <= u_max, the same scalars for both components
    at every face and step; an empty or NaN box is rejected here."""

    u_min: float = -1.0
    u_max: float = 1.0

    def __post_init__(self):
        if not self.u_min <= self.u_max:
            raise ConfigError(f"admissible set is empty: u_min exceeds u_max or is NaN ({self})")


def inner_q(a: Iterable[FaceField], b: Iterable[FaceField], dt: float) -> float:
    """dt times the sum over steps of the L2(Omega) products of two series, or
    of any iterables of step fields: a difference is reduced one step at a
    time, since a freed whole-series temporary leaves a heap hole that the
    solvers' per-step arrays fragment (it raised the optimizer's peak RSS)."""
    return dt * sum(face_inner(a_n, b_n) for a_n, b_n in zip(a, b))


def norm_q(a: FaceField, dt: float) -> float:
    return float(np.sqrt(inner_q(a, a, dt)))


# ---------------------------------------------------------------------------
# seeded smooth fields


# cosine modes per direction of the seeded smooth fields
SMOOTH_MODES = 3


def _cosine_series(coeffs: np.ndarray, x, y, lx, ly):
    total = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
    for (j, k), c in np.ndenumerate(coeffs):
        total = total + c * np.cos(np.pi * j * x / lx) * np.cos(np.pi * k * y / ly)
    return total


def random_smooth_facefield(grid: GridSpec, seed: int, amplitude: float = 1.0) -> FaceField:
    """Smooth seeded face field with vanishing boundary normal components.

    The underlying continuum field depends only on the seed, so sampling it
    on a refined grid gives the same function.
    """
    rng = np.random.default_rng(seed)
    cx = rng.standard_normal((SMOOTH_MODES, SMOOTH_MODES))
    cy = rng.standard_normal((SMOOTH_MODES, SMOOTH_MODES))

    xf_x = np.arange(grid.nx + 1) * grid.hx
    xf_y = (np.arange(grid.ny) + 0.5) * grid.hy
    fx = _cosine_series(cx, xf_x[:, None], xf_y[None, :], grid.lx, grid.ly)
    fx *= np.sin(np.pi * xf_x / grid.lx)[:, None]

    yf_x = (np.arange(grid.nx) + 0.5) * grid.hx
    yf_y = np.arange(grid.ny + 1) * grid.hy
    fy = _cosine_series(cy, yf_x[:, None], yf_y[None, :], grid.lx, grid.ly)
    fy *= np.sin(np.pi * yf_y / grid.ly)[None, :]

    scale = max(np.abs(fx).max(), np.abs(fy).max(), 1e-30)
    return FaceField(grid, amplitude * fx / scale, amplitude * fy / scale)


def smooth_direction(
    grid: GridSpec, time: TimeSpec, seed: int, amplitude: float = 1.0
) -> StepSeries:
    """Seeded smooth space profile modulated smoothly in time: step n is
    ``profile * mod[n]``, formed when it is read."""
    profile = random_smooth_facefield(grid, seed, amplitude)
    t_mid = (np.arange(time.n_steps) + 0.5) * time.dt
    mod = 1.0 + 0.5 * np.sin(2.0 * np.pi * t_mid / max(time.T, 1e-30))
    return StepSeries(time.n_steps, lambda n: profile * mod[n])


def smooth_control_series(
    grid: GridSpec, time: TimeSpec, seed: int, amplitude: float = 1.0
) -> FaceField:
    """``smooth_direction`` stored as one face field with a leading step axis."""
    n_steps = time.n_steps
    out = FaceField(grid, np.empty((n_steps, grid.nx + 1, grid.ny)),
                    np.empty((n_steps, grid.nx, grid.ny + 1)))
    for n, h_n in enumerate(smooth_direction(grid, time, seed, amplitude)):
        out.x[n], out.y[n] = h_n.x, h_n.y
    return out


@dataclass
class OptimizerOptions:
    """Knobs of the projected-gradient loop.

    ``tol`` is relative: the loop stops when the unit-step fixed-point
    residual drops below tol * ||g_0||_{L2(Q)}.
    """

    tol: float = 1e-3
    max_iter: int = 50
    armijo_c1: float = 1e-4
    backtrack_max: int = 30

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol >= 0):
            raise ConfigError(f"optimizer.tol must be finite and nonnegative, got {self.tol}")
        if not 0 < self.armijo_c1 < 1:
            raise ConfigError(f"optimizer.armijo_c1 must lie in (0, 1), got {self.armijo_c1}")
        if self.max_iter < 0:
            raise ConfigError(f"optimizer.max_iter must be nonnegative, got {self.max_iter}")
        if self.backtrack_max < 0:
            raise ConfigError(f"optimizer.backtrack must be nonnegative, got {self.backtrack_max}")


class StopReason(Enum):
    """Why the projected-gradient loop stopped."""

    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    LINE_SEARCH_FAILED = "line search failed"
    ROUNDOFF = "decrease below J roundoff"


@dataclass
class OptimReport:
    """Per-trial optimizer history plus the termination reason."""

    rows: list[tuple] = field(default_factory=list)
    reason: StopReason | None = None
    n_simulations: int = 0
    initial_grad_norm: float = 0.0
    max_bound_violation: float = 0.0

    COLUMNS = (
        "iter", "J", "J_track", "J_terminal", "J_control",
        "grad_norm", "stationarity", "step", "accepted",
    )

    def add(self, **kw) -> None:
        self.rows.append(tuple(kw[c] for c in self.COLUMNS))

    def accepted_J(self) -> np.ndarray:
        return np.array([r[1] for r in self.rows if r[8]])

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(self.COLUMNS) + "\n")
            for row in self.rows:
                fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


@dataclass(frozen=True)
class ControlProblem:
    """Everything a control run needs: dynamics, cost, and admissible set.

    The problem is frozen, so the unforced solves it caches on first read
    -- ``base``, the va series ``base_adjoint`` and the per-seed
    ``sensitivity`` (a step-built direction and its psi series) -- can never
    go stale;
    ``dataclasses.replace`` makes a changed problem with empty caches.
    Every reader gets the same cached objects, so none may modify them.
    """

    v0: FaceField
    phi0: ScalarField
    time: TimeSpec
    params: PhysParams
    cost: CostSpec
    bounds: ControlBounds
    _sensitivities: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def grid(self) -> GridSpec:
        return self.phi0.grid

    def simulate(self, u: FaceField | StepSeries | None) -> Trajectory:
        return simulate(self.v0, self.phi0, u, self.time, self.params)

    def simulate_many(self, controls: Sequence[FaceField | StepSeries]) -> list[Trajectory]:
        """``[self.simulate(u) for u in controls]`` bit for bit, as one forward
        sweep with a leading batch axis: the batched force of step n stacks the
        members' step-n fields when the sweep reads it; the trajectories are
        views."""
        grid, b, n_steps = self.grid, len(controls), self.time.n_steps
        for c in controls:
            check_steps(c, grid, n_steps, "control")

        def batched(n: int) -> FaceField:
            steps = [c[n] for c in controls]
            return FaceField(grid, np.stack([s.x for s in steps]), np.stack([s.y for s in steps]))

        u = StepSeries(n_steps, batched)
        v0 = FaceField(grid, np.stack([self.v0.x] * b), np.stack([self.v0.y] * b))
        phi0 = ScalarField(grid, np.stack([self.phi0.values] * b))
        batch = simulate(v0, phi0, u, self.time, self.params).states
        return [Trajectory(grid, self.time, self.params,
                           [State(s.v[m], s.p[m], s.phi[m], s.time, s.params) for s in batch])
                for m in range(b)]

    @cached_property
    def base(self) -> Trajectory:
        """The unforced trajectory."""
        return self.simulate(None)

    @cached_property
    def base_adjoint(self) -> list[FaceField]:
        """The adjoint velocity series va of the cost along ``base``."""
        return solve_adjoint(self.base, self.cost, self.params)

    def sensitivity(self, seed: int) -> tuple[StepSeries, list[ScalarField]]:
        """The unit seeded direction ``smooth_direction(grid, time, seed)``,
        held as its profile and modulation, and the psi series of its
        sensitivity along ``base``."""
        if seed not in self._sensitivities:
            h = smooth_direction(self.grid, self.time, seed)
            self._sensitivities[seed] = (h, solve_linearized(self.base, h, self.params))
        return self._sensitivities[seed]


def evaluate_cost(
    traj: Trajectory, u: FaceField | StepSeries | None, cost: CostSpec
) -> tuple[float, dict]:
    """Evaluate J and its three components on a trajectory/control pair."""
    n = traj.time.n_steps
    check_steps(u, traj.grid, n, "control")
    if len(cost.phi_q) != n + 1:
        raise ConfigError(f"running target has {len(cost.phi_q)} nodes, need {n + 1}")
    dt = traj.time.dt

    j_track = 0.0
    if cost.alpha1 > 0:
        for k, (state, w) in enumerate(zip(traj.states, trapezoid_weights(n))):
            diff = state.phi - cost.phi_q[k]
            j_track += 0.5 * cost.alpha1 * w * dt * scalar_inner(diff, diff)

    diff_t = traj.final.phi - cost.phi_omega
    j_term = 0.5 * cost.alpha2 * scalar_inner(diff_t, diff_t)

    j_ctrl = 0.0
    if u is not None and cost.alpha3 > 0:
        for u_n in u:
            j_ctrl += 0.5 * cost.alpha3 * dt * face_inner(u_n, u_n)

    total = j_track + j_term + j_ctrl
    return total, {"track": j_track, "terminal": j_term, "control": j_ctrl}


def reduced_gradient(
    u: FaceField, adj: Sequence[FaceField], cost: CostSpec
) -> FaceField:
    """Gradient series alpha3*u_n + va(t_n) of the reduced cost, from the
    adjoint velocity series ``adj`` of ``solve_adjoint``."""
    if len(adj) != len(u.x) + 1:
        raise ConfigError(
            f"adjoint trajectory has {len(adj)} nodes, control has {len(u.x)} steps"
        )
    g = cost.alpha3 * u
    for g_n, a in zip(g, adj):  # in place: stacking the va would allocate a second series
        g_n.x += a.x
        g_n.y += a.y
    return g


def project_admissible(u: FaceField, bounds: ControlBounds) -> FaceField:
    """Componentwise clamp onto the box (the L2-orthogonal projection).

    Boundary normal faces are not control degrees of freedom and are kept
    at zero after clamping.
    """
    out = FaceField(u.grid, np.clip(u.x, bounds.u_min, bounds.u_max),
                    np.clip(u.y, bounds.u_min, bounds.u_max))
    out.x[..., [0, -1], :] = 0.0
    out.y[..., [0, -1]] = 0.0
    return out


def stationarity_residual(
    u: FaceField, g: FaceField, bounds: ControlBounds, dt: float
) -> float:
    """Unit-step fixed-point residual ||u - P(u - g)||_{L2(Q)}."""
    return norm_q(u - project_admissible(u - g, bounds), dt)


def bound_violation(u: FaceField, bounds: ControlBounds) -> float:
    """Largest componentwise excursion of u outside the admissible box, over
    the control degrees of freedom (the pinned boundary normal faces are not)."""
    free = (u.x[..., 1:-1, :], u.y[..., 1:-1])
    return max(0.0, *(float(a.max()) - bounds.u_max for a in free),
               *(bounds.u_min - float(a.min()) for a in free))


def optimize(
    problem: ControlProblem,
    u0: FaceField | None = None,
    options: OptimizerOptions | None = None,
) -> tuple[FaceField, OptimReport]:
    """Spectral projected gradient descent with Armijo backtracking in the
    problem's box.

    Each line search starts from the Barzilai-Borwein (BB2) step
    <du, dg>_Q / <dg, dg>_Q, with du = u_k - u_{k-1} and dg = g_k - g_{k-1},
    capped at step0 = 1/alpha3 (1 when alpha3 = 0).  The first line search
    starts from step0, and one after a pair with <du, dg>_Q <= 0 from twice
    the last accepted step, capped at step0.  The step is halved until the
    projected trial u_s = P(u - s g) passes the Armijo test
    J(u_s) <= J(u) - c1 <g, u - u_s>_Q, which is J(u) - c1 s ||g||^2
    where no bound is active.  The loop stops (``OptimReport.reason``) when
    the unit-step fixed-point residual falls below tol * ||g_0||, after
    max_iter accepted iterations, when backtrack_max halvings find no
    acceptable step, or when a rejected trial's Armijo decrease is below
    what J resolves (J minus it rounds to J).

    A line search holds one trajectory at a time: the accepted trajectory
    is released once its gradient is formed, a rejected trial before the
    next one is simulated.
    """
    opts = options or OptimizerOptions()
    cost, bounds, dt = problem.cost, problem.bounds, problem.time.dt
    require_unit_mobility(problem.params, "the optimizer")
    report = OptimReport()

    def evaluate(u: FaceField):
        traj = problem.simulate(u)
        report.n_simulations += 1
        return (traj, *evaluate_cost(traj, u, cost))

    if u0 is None:
        u0 = FaceField.zeros(problem.grid, problem.time.n_steps)
    u = project_admissible(u0, bounds)
    u0 = None  # not held through the run: only its projection is read
    report.max_bound_violation = bound_violation(u, bounds)
    traj, j, comps = evaluate(u)

    step0 = 1.0 / cost.alpha3 if cost.alpha3 > 0 else 1.0
    s, last_step = step0, 0.0
    u_prev = g_prev = None
    for it in range(opts.max_iter + 1):
        g = reduced_gradient(u, solve_adjoint(traj, cost, problem.params), cost)
        traj = None
        if u_prev is not None:
            bb = _bb2_step(u, u_prev, g, g_prev, dt)
            u_prev = g_prev = None
            s = min(2.0 * last_step if bb is None else bb, step0)
        g_norm = norm_q(g, dt)
        if it == 0:
            report.initial_grad_norm = g_norm
        residual = stationarity_residual(u, g, bounds, dt)
        report.add(
            iter=it, J=j, J_track=comps["track"], J_terminal=comps["terminal"],
            J_control=comps["control"], grad_norm=g_norm, stationarity=residual,
            step=last_step, accepted=1,
        )
        if residual <= opts.tol * report.initial_grad_norm:
            report.reason = StopReason.CONVERGED
            return u, report
        if it == opts.max_iter:
            report.reason = StopReason.MAX_ITER
            return u, report

        for _ in range(opts.backtrack_max + 1):
            u_trial = project_admissible(u - s * g, bounds)
            traj_trial, j_trial, comps_trial = evaluate(u_trial)
            target = j - opts.armijo_c1 * inner_q(g, (a - b for a, b in zip(u, u_trial)), dt)
            if j_trial <= target:
                break
            report.add(
                iter=it + 1, J=j_trial, J_track=comps_trial["track"],
                J_terminal=comps_trial["terminal"], J_control=comps_trial["control"],
                grad_norm=g_norm, stationarity=residual, step=s, accepted=0,
            )
            if target == j:  # shorter steps decrease J even less
                report.reason = StopReason.ROUNDOFF
                return u, report
            u_trial = traj_trial = None
            s *= 0.5
        else:
            report.reason = StopReason.LINE_SEARCH_FAILED
            return u, report

        u_prev, g_prev, last_step = u, g, s
        u, traj, j, comps = u_trial, traj_trial, j_trial, comps_trial
        u_trial = traj_trial = None
        report.max_bound_violation = max(report.max_bound_violation, bound_violation(u, bounds))


def _bb2_step(
    u: FaceField, u_prev: FaceField, g: FaceField, g_prev: FaceField, dt: float
) -> float | None:
    """Barzilai-Borwein step <du, dg>_Q / <dg, dg>_Q of the last iterate pair,
    or None when <du, dg>_Q <= 0 (no positive curvature along du)."""
    dg = [a - b for a, b in zip(g, g_prev)]
    curvature = inner_q((a - b for a, b in zip(u, u_prev)), dg, dt)
    return curvature / inner_q(dg, dg, dt) if curvature > 0 else None
