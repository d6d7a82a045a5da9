"""Cost evaluation, reduced gradient, box projection and projected-gradient
descent for the tracking control problem.

The cost is

    J(u) = alpha1/2 int_Q |phi - phi_Q|^2 + alpha2/2 int_Omega |phi(T) - phi_Omega|^2
         + alpha3/2 int_Q |u|^2,

with trapezoid-in-time, cell-sum-in-space quadrature for the tracking term
and the exact integral of the piecewise-constant control for the control
term.  A control, like each direction and gradient, is one ``FaceField``
whose leading axis is the step: ``u[n]`` acts on (t_n, t_{n+1}).  The
reduced gradient is the series alpha3*u_n + va(t_n) (``gradient_step``):
the backward state at t_n already accounts for the transposed dynamics of
the step (t_n, t_{n+1}) on which u_n acts, so the left-endpoint value is
the consistent representative of int h . va over the step (checked against
per-face derivatives of the discrete cost in the test suite).

The admissible set is a componentwise box owned by the ``ControlProblem``
(a control field carries no bounds); its L2 projection is the pointwise
clamp (boundary normal faces are not control degrees of freedom and stay
pinned at zero).  One formula, the fixed-point residual
||u - P(u - s g)||_{L2(Q)} (``stationarity_residual``), serves both
stationarity measures.  The loop monitors its unit step s = 1 and stops
when it falls below tol times its first value.  For alpha3 > 0 the paper's
first-order condition is the projection formula u = P(-va/alpha3); its
residual, the step s = 1/alpha3, is reported at the stop.

The optimizer is spectral projected gradient (Barzilai & Borwein, IMA J.
Numer. Anal. 8, 1988; Birgin, Martinez & Raydan, SIAM J. Optim. 10, 2000):
each line search starts from the BB2 step <du, dg>_Q / <dg, dg>_Q of the
last iterate pair, capped at step0 = 1/alpha3 (1 when alpha3 = 0).  The
first line search starts from step0, and one after a pair with
<du, dg>_Q <= 0 from twice the last accepted step, capped at step0.
Trials are halved until the Armijo test on the projected step,
J(u_s) <= J(u) - c1 <g, u - u_s>_Q, holds.

The optimizer holds two control series, u and the gradient g, and
overwrites both in place (``optimize`` lists what it holds per stage).  A
trial P(u - s g) is a formula, not a series: a ``StepSeries`` whose step n
is formed from u_n and g_n where it is read (``projected_step``).  Every
adjoint sweep hands each va(t_n) to a per-node map that reads step n of the
accepted run's control, writes it over u_n, forms g_n, reduces step n's two
BB terms against du_n and g_prev,n, and only then writes g_n over g_prev,n,
so no va, du or dg series is built.  Sums of floats run left to right
(``ordered_sum``).

The seeded smooth directions are built here too.  Each is separable,
profile(x) * mod(t_n), so ``smooth_direction`` holds the profile (one face
field) and the modulation (n_steps numbers) and forms step n where it is
read (a ``StepSeries``); ``config.reference_control`` clamps its steps into
the tracking targets' reference control.  A ``ControlProblem``
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
from .errors import BlowUpError, ConfigError
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


def ordered_sum(terms: Iterable[float]) -> float:
    """The float sum of ``terms``, added left to right.  The builtin ``sum``
    is compensated from Python 3.12 on, so it gives other bits there."""
    total = 0.0
    for term in terms:
        total += term
    return total


def inner_q(a: Iterable[FaceField], b: Iterable[FaceField], dt: float) -> float:
    """dt times the sum over steps of the L2(Omega) products of two series, or
    of any iterables of step fields: a difference is reduced one step at a
    time, since a freed whole-series temporary leaves a heap hole that the
    solvers' per-step arrays fragment (it raised the optimizer's peak RSS)."""
    return dt * ordered_sum(face_inner(a_n, b_n) for a_n, b_n in zip(a, b))


def norm_q(a: Iterable[FaceField], dt: float) -> float:
    """sqrt(inner_q(a, a, dt)), reading each step of ``a`` once (a generator
    of step fields is reduced as it runs)."""
    return float(np.sqrt(dt * ordered_sum(face_inner(a_n, a_n) for a_n in a)))


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
    return StepSeries(grid, time.n_steps, lambda n: profile * mod[n])


@dataclass
class OptimizerOptions:
    """Knobs of the projected-gradient loop.

    ``tol`` is relative: the loop stops when the unit-step fixed-point
    residual ||u - P(u - g)||_{L2(Q)} drops below tol times its value at the
    first iterate.  The residual is in the units of u, capped by the box,
    so it is compared with itself and not with ||g_0||, which grows with
    the cost weights.
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
    """Per-trial optimizer history plus the termination reason.  With
    alpha3 > 0, ``certificate`` is ||u - P(u - g/alpha3)||_Q at the returned
    u: the residual of the paper's first-order condition u = P(-va/alpha3)
    (None for alpha3 = 0; no CSV column)."""

    rows: list[tuple] = field(default_factory=list)
    reason: StopReason | None = None
    n_simulations: int = 0
    max_bound_violation: float = 0.0
    certificate: float | None = None

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
        views, and each records its own member's control."""
        grid, b, n_steps = self.grid, len(controls), self.time.n_steps
        for c in controls:
            check_steps(c, grid, n_steps, "control")

        def batched(n: int) -> FaceField:
            steps = [c[n] for c in controls]
            return FaceField(grid, np.stack([s.x for s in steps]), np.stack([s.y for s in steps]))

        u = StepSeries(grid, n_steps, batched)
        v0 = FaceField(grid, np.stack([self.v0.x] * b), np.stack([self.v0.y] * b))
        phi0 = ScalarField(grid, np.stack([self.phi0.values] * b))
        batch = simulate(v0, phi0, u, self.time, self.params)
        return [Trajectory(self.time, self.params, [State(s.v[m], s.phi[m]) for s in batch], c)
                for m, c in enumerate(controls)]

    @cached_property
    def base(self) -> Trajectory:
        """The unforced trajectory."""
        return self.simulate(None)

    @cached_property
    def base_adjoint(self) -> list[FaceField]:
        """The adjoint velocity series va of the cost along ``base``."""
        return solve_adjoint(self.base, self.cost)

    def sensitivity(self, seed: int) -> tuple[StepSeries, list[ScalarField]]:
        """The unit seeded direction ``smooth_direction(grid, time, seed)``,
        held as its profile and modulation, and the psi series of its
        sensitivity along ``base``."""
        if seed not in self._sensitivities:
            h = smooth_direction(self.grid, self.time, seed)
            self._sensitivities[seed] = (h, solve_linearized(self.base, h))
        return self._sensitivities[seed]


def evaluate_cost(traj: Trajectory, cost: CostSpec) -> tuple[float, dict]:
    """J and its three components on a trajectory and its ``control``."""
    n, u = traj.time.n_steps, traj.control
    if len(cost.phi_q) != n + 1:
        raise ConfigError(f"running target has {len(cost.phi_q)} nodes, need {n + 1}")
    dt = traj.time.dt

    j_track = 0.0
    if cost.alpha1 > 0:
        for k, (state, w) in enumerate(zip(traj, trapezoid_weights(n))):
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


def gradient_step(u_n: FaceField, va_n: FaceField, alpha3: float) -> FaceField:
    """Step n of the reduced gradient, alpha3*u_n + va(t_n)."""
    return alpha3 * u_n + va_n


def project_admissible(u: FaceField, bounds: ControlBounds) -> FaceField:
    """Componentwise clamp onto the box (the L2-orthogonal projection).

    Boundary normal faces are not control degrees of freedom and are kept
    at zero after clamping.
    """
    return _clamp(u.copy(), bounds)


def _clamp(u: FaceField, bounds: ControlBounds) -> FaceField:
    """``project_admissible`` in place: clip u to the box (``ndarray.clip``
    gives np.clip's bits without its dispatch), then zero the first and last
    face rows, the walls, through one strided view per component."""
    u.x.clip(bounds.u_min, bounds.u_max, out=u.x)
    u.y.clip(bounds.u_min, bounds.u_max, out=u.y)
    u.x[..., ::u.grid.nx, :] = 0.0
    u.y[..., ::u.grid.ny] = 0.0
    return u


def projected_step(u_n: FaceField, g_n: FaceField, s: float, bounds: ControlBounds) -> FaceField:
    """P(u_n - s g_n), a new face field: step n of a projected-gradient trial."""
    out = g_n * s
    np.subtract(u_n.x, out.x, out=out.x)
    np.subtract(u_n.y, out.y, out=out.y)
    return _clamp(out, bounds)


def stationarity_residual(
    u: FaceField, g: FaceField, bounds: ControlBounds, dt: float, s: float = 1.0
) -> float:
    """Fixed-point residual ||u - P(u - s g)||_{L2(Q)} of step s (the unit
    step by default), reduced one step at a time as u_n - P(u_n - s g_n)."""
    return norm_q((u_n - projected_step(u_n, g_n, s, bounds) for u_n, g_n in zip(u, g)), dt)


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
    the unit-step fixed-point residual falls below tol times its first
    value, after max_iter accepted iterations, when backtrack_max halvings
    find no acceptable step, or when a rejected trial's Armijo decrease is
    below what J resolves (J minus it rounds to J).  A trial whose forward
    solve blows up is a rejected trial with J = inf.  At every stop with
    alpha3 > 0 the report holds the paper's optimality certificate
    ||u - P(u - g/alpha3)||_Q = ||u - P(-va/alpha3)||_Q.

    The run allocates two control series, u and the gradient g, and holds
    one trajectory at a time: the accepted trajectory is released once its
    gradient is formed, a rejected trial before the next one is simulated.
    Stage by stage:

    * line search: u, g, and the trial's trajectory.  The trial P(u - s g)
      is a ``StepSeries``: the forward solve, the cost and the Armijo
      product each form its step n from u_n and g_n as they read it;
    * adjoint sweep: u, g and the accepted trajectory, whose control is u on
      the first sweep and P(u - s g) at the accepted step s after it.  As
      every sweep reaches va(t_n) it reads that control's step n, du_n =
      u_new,n - u_n, writes u_new,n over u_n, then forms g_n, dg_n = g_n -
      g_prev,n and the BB terms <du_n, dg_n>, <dg_n, dg_n>, and only then
      writes g_n over g_prev,n, so neither the va series nor du or dg is built.
    """
    opts = options or OptimizerOptions()
    cost, bounds, dt = problem.cost, problem.bounds, problem.time.dt
    grid, n_steps = problem.grid, problem.time.n_steps
    require_unit_mobility(problem.params, "the optimizer")
    report = OptimReport()

    def evaluate(u: FaceField | StepSeries):
        report.n_simulations += 1  # a solve that blows up counts too
        traj = problem.simulate(u)
        return (traj, *evaluate_cost(traj, cost))

    def trial(s: float) -> StepSeries:
        return StepSeries(grid, n_steps, lambda n: projected_step(u[n], g[n], s, bounds))

    def read(n: int, va: FaceField) -> tuple[float, float] | None:
        """Advance u_n in place to step n of the accepted run's control, write
        g_n over g_prev,n, and return step n's BB terms."""
        if n == n_steps:  # va(T) acts on no step
            return None
        u_new = traj.control[n]  # a trial step reads u_n and g_n: read it first
        report.max_bound_violation = max(report.max_bound_violation,
                                         bound_violation(u_new, bounds))
        du_n = u_new - u[n]
        u[n] = u_new
        g_n = gradient_step(u_new, va, cost.alpha3)
        dg_n = g_n - g[n]
        g[n] = g_n
        return face_inner(du_n, dg_n), face_inner(dg_n, dg_n)

    def stop(reason: StopReason) -> tuple[FaceField, OptimReport]:
        report.reason = reason
        if cost.alpha3 > 0:  # step0 = 1/alpha3
            report.certificate = stationarity_residual(u, g, bounds, dt, step0)
        return u, report

    if u0 is None:
        u0 = FaceField.zeros(grid, n_steps)
    u = project_admissible(u0, bounds)
    u0 = None  # not held through the run: only its projection is read
    traj, j, comps = evaluate(u)
    g = FaceField.zeros(grid, n_steps)

    step0 = 1.0 / cost.alpha3 if cost.alpha3 > 0 else 1.0
    s, last_step = step0, 0.0
    for it in range(opts.max_iter + 1):
        bb_terms = solve_adjoint(traj, cost, read)[:n_steps]
        traj = None
        if it > 0:
            bb = _bb2_step(bb_terms, dt)
            s = min(2.0 * last_step if bb is None else bb, step0)
        g_norm = norm_q(g, dt)
        residual = stationarity_residual(u, g, bounds, dt)
        if it == 0:
            residual0 = residual
        report.add(
            iter=it, J=j, J_track=comps["track"], J_terminal=comps["terminal"],
            J_control=comps["control"], grad_norm=g_norm, stationarity=residual,
            step=last_step, accepted=1,
        )
        if residual <= opts.tol * residual0:
            return stop(StopReason.CONVERGED)
        if it == opts.max_iter:
            return stop(StopReason.MAX_ITER)

        for _ in range(opts.backtrack_max + 1):
            u_s = trial(s)
            try:
                traj, j_trial, comps_trial = evaluate(u_s)
            except BlowUpError:  # a step too long for the forward solve
                j_trial, comps_trial = np.inf, dict.fromkeys(comps, np.inf)
            target = j - opts.armijo_c1 * inner_q(g, (a - b for a, b in zip(u, u_s)), dt)
            if j_trial <= target:
                break
            report.add(
                iter=it + 1, J=j_trial, J_track=comps_trial["track"],
                J_terminal=comps_trial["terminal"], J_control=comps_trial["control"],
                grad_norm=g_norm, stationarity=residual, step=s, accepted=0,
            )
            if target == j:  # shorter steps decrease J even less
                return stop(StopReason.ROUNDOFF)
            traj = None
            s *= 0.5
        else:
            return stop(StopReason.LINE_SEARCH_FAILED)

        last_step, j, comps = s, j_trial, comps_trial  # the next sweep advances u by s


def _bb2_step(terms: Sequence[tuple[float, float]], dt: float) -> float | None:
    """Barzilai-Borwein step <du, dg>_Q / <dg, dg>_Q of the last iterate pair
    from its per-step terms (<du_n, dg_n>, <dg_n, dg_n>) in step order, or
    None when <du, dg>_Q <= 0 (no positive curvature along du)."""
    curvature = dt * ordered_sum(c for c, _ in terms)
    return curvature / (dt * ordered_sum(d for _, d in terms)) if curvature > 0 else None
