"""Forward solver: projection-method flow coupled to a sixth-order
convective Cahn-Hilliard equation.

One time step advances (v, phi) with a first-order IMEX splitting:

1. momentum step with the beginning-of-step phase field: explicit
   conservative advection, semi-implicit viscosity (constant part nu_bar
   implicit through per-component Helmholtz solves, variable remainder
   div(2(nu(phi) - nu_bar) D v) explicit), explicit capillary force
   (face-averaged mu times face gradient of phi), body force u, then
   pressure projection;
2. phase step transported by the *new* velocity, so the conservative
   advection sees a discretely divergence-free field and the phase mean is
   preserved to roundoff.

The phase step treats the leading sixth-order operator implicitly together
with a biharmonic stabilization S*Lap^2 (added on both sides, an O(dt)
perturbation):

    (I + dt*m*(-Lap)^3 + dt*S*Lap^2) phi_new
        = phi_old + dt*m*Lap(N(phi_old)) + dt*S*Lap^2(phi_old)
          - dt*div(v_new phi_old),

where N(phi) = -Lap(f(phi)) + (f'(phi) + eta) omega(phi) is the chemical
potential minus its leading biharmonic part, so that mu = Lap^2 phi + N.
All implicit solves are diagonal in cosine/sine bases and therefore exact.

The scheme lives here once (``momentum_update``, ``phase_update``,
``phase_solve``, ``trapezoid_weights``, ``check_finite``): the sensitivity
stepper runs the same updates and the adjoint stepper the same phase symbol.

A trajectory node is (v, phi): no sweep reads the pressure ``ns_step``
returns, and mu and omega depend on phi alone, so each sweep builds them
with ``mu_of_phi`` once per node and keeps them only while its step needs
them; node n's time is n*dt.  The per-node diagnostics are computed on
first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from . import mac
from .constitutive import PhysParams, free_energy, mu_of_phi
from .errors import BlowUpError, ConfigError
from .grid import (
    FaceField,
    GridSpec,
    ScalarField,
    advect_scalar,
    divergence_of_faces,
    face_inner,
    gradient_to_faces,
    helmholtz_poly_solve,
    laplacian,
    project_divergence_free,
)

PHI_BLOWUP_LIMIT = 1e6

DIAGNOSTIC_COLUMNS = (
    "step",
    "time",
    "mass",
    "energy",
    "willmore",
    "gl",
    "kinetic",
    "dissipation_v",
    "dissipation_mu",
    "divergence_max",
)


@dataclass(frozen=True)
class TimeSpec:
    """Uniform time grid on [0, T] with n_steps = T/dt steps."""

    T: float
    dt: float

    def __post_init__(self):
        for name in ("T", "dt"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"time.{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0:
            raise ConfigError(f"time step time.dt must be positive, got {self.dt}")
        ratio = self.T / self.dt
        if ratio < 0.5:  # rounds to no step at all
            raise ConfigError(
                f"final time time.T = {self.T} must cover at least one time step "
                f"time.dt = {self.dt}"
            )
        n = round(ratio) if np.isfinite(ratio) else 0  # T/dt can overflow
        if n < 1 or abs(n * self.dt - self.T) > 1e-12 * max(1.0, abs(self.T)):
            raise ConfigError(
                f"final time {self.T} is not an integer multiple of dt={self.dt}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.T / self.dt)

    def refine(self) -> "TimeSpec":
        """The same interval with half the time step."""
        return TimeSpec(self.T, self.dt / 2)


@dataclass
class State:
    """Velocity and phase field at one time node."""

    v: FaceField
    phi: ScalarField


@dataclass
class Trajectory:
    """Forward states at t_n = n*dt, n = 0..N, and the force series
    ``control`` they were run with (None if unforced); the per-node
    ``diagnostics`` (one series per DIAGNOSTIC_COLUMNS entry) are computed
    from them on first read and cached.  A ``StepSeries`` control is formed
    again where it is read, so read its step n before changing its inputs.

    Read the nodes by index ``traj[n]`` (negative as for a list), by
    iteration, ``len`` and ``final``: ``states`` is only their storage."""

    time: TimeSpec
    params: PhysParams
    states: list[State]
    control: FaceField | StepSeries | None = None

    @cached_property
    def diagnostics(self) -> dict[str, np.ndarray]:
        dt = self.time.dt
        rows = [(n, n * dt) + _node_diagnostics(s, self.params) for n, s in enumerate(self)]
        return {
            name: np.array([row[i] for row in rows]) for i, name in enumerate(DIAGNOSTIC_COLUMNS)
        }

    @property
    def grid(self) -> GridSpec:
        return self[0].phi.grid

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, n: int) -> State:
        return self.states[n]

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)

    @property
    def final(self) -> State:
        return self[-1]


def check_finite(step: int, bounded: dict, unbounded: dict | None = None) -> None:
    """Raise a BlowUpError naming ``step``, the first field (and batch member)
    that is not finite or, for the ``bounded`` ones, exceeds PHI_BLOWUP_LIMIT."""
    def blown(name, arr):
        return not np.isfinite(arr).all() or (
            name in bounded and np.abs(arr).max() > PHI_BLOWUP_LIMIT)

    for name, arr in {**bounded, **(unbounded or {})}.items():
        if blown(name, arr):
            where = f"step {step} in {name}"
            if arr.ndim > 2:  # a batch: name its first blown member
                where += f" of batch member {next(m for m, a in enumerate(arr) if blown(name, a))}"
            raise BlowUpError(f"blow-up detected at {where}", step=step)


class StepSeries:
    """A force series formed one step at a time: ``len(s)`` steps on ``grid``,
    and step ``s[n]`` is ``build(n)``, a new face field on every read.  Its
    readers index or iterate it as they do a stored ``FaceField`` with a
    leading step axis, so a separable or perturbed series is never held whole."""

    def __init__(self, grid: GridSpec, n_steps: int, build: Callable[[int], FaceField]):
        self.grid, self.n_steps, self.build = grid, n_steps, build

    def __len__(self) -> int:
        return self.n_steps

    def __getitem__(self, n: int) -> FaceField:  # iterating walks the steps
        if not 0 <= n < self.n_steps:
            raise IndexError(f"step {n} of a {self.n_steps}-step series")
        return self.build(n)


def check_steps(series: FaceField | StepSeries | None, grid: GridSpec, n_steps: int,
                name: str) -> None:
    """Reject a force series -- a ``FaceField`` with a leading step axis or a
    ``StepSeries`` -- without ``n_steps`` steps, or on another grid than
    ``grid``.  No step is formed."""
    if series is None:
        return
    stored = isinstance(series, FaceField)
    if stored and series.x.ndim < 3:
        raise ConfigError(f"{name} series has no step axis, need {n_steps}")
    found = len(series.x) if stored else len(series)
    if found != n_steps:
        raise ConfigError(f"{name} series has {found} entries, need {n_steps}")
    if series.grid != grid:
        raise ConfigError(f"{name} series lives on {series.grid}, the run on {grid}")


def trapezoid_weights(n_steps: int) -> list[float]:
    """Trapezoid-rule node weights on t_0..t_N in units of dt: [0.5, 1, ..., 1, 0.5]."""
    return [0.5 if k in (0, n_steps) else 1.0 for k in range(n_steps + 1)]


def phase_solve(rhs: ScalarField, dt: float, params: PhysParams) -> ScalarField:
    """The implicit phase symbol: solve (I + dt*m0*(-Lap)^3 + dt*S*Lap^2) x = rhs."""
    return helmholtz_poly_solve(1.0, 0.0, dt * params.stab, dt * params.mob_const, rhs)


def phase_update(
    x: ScalarField, chem: ScalarField, transports: Sequence[ScalarField],
    flux: FaceField | None, dt: float, params: PhysParams,
) -> ScalarField:
    """One stabilized phase step of ``x`` with chemical potential ``chem``
    (Lap^2 x is its implicit part); the ``transports`` are subtracted in
    order and ``flux`` is the nonconstant-mobility face flux (or None)."""
    lap2_x = laplacian(laplacian(x))
    n_part = ScalarField(x.grid, chem.values - lap2_x.values)  # N = chem - Lap^2 x
    rhs = (
        x.values
        + dt * params.mob_const * laplacian(n_part).values
        + dt * params.stab * lap2_x.values
    )
    for t in transports:
        rhs -= dt * t.values
    if flux is not None:
        rhs += dt * divergence_of_faces(flux).values
    return phase_solve(ScalarField(x.grid, rhs), dt, params)


def momentum_update(
    v_n: FaceField, adv: FaceField, visc: FaceField, force: FaceField,
    u_n: FaceField | None, dt: float, params: PhysParams,
) -> tuple[FaceField, ScalarField]:
    """v_n + dt*(-adv + visc + force [+ u_n]), built in the ``visc`` buffer,
    then the implicit dt*nu_bar viscous solve and the pressure projection."""
    for r, a, f, v in ((visc.x, adv.x, force.x, v_n.x), (visc.y, adv.y, force.y, v_n.y)):
        r -= a
        r += f
        r *= dt
        r += v
    if u_n is not None:
        visc.x += dt * u_n.x
        visc.y += dt * u_n.y
    v_star = mac.solve_face_helmholtz(visc, dt * params.nu_bar)
    return project_divergence_free(v_star, dt)


def ch_step(
    phi_n: ScalarField, mu_n: ScalarField, v: FaceField, dt: float, params: PhysParams
) -> ScalarField:
    """One semi-implicit phase step transported by the face field ``v``.

    ``mu_n`` is the chemical potential of ``phi_n`` (``mu_of_phi``).  ``v``
    must be discretely divergence-free (conservation of the phase mean
    relies on it).  Nonconstant mobility is handled by an explicit extra
    flux of the variable part against the mobility floor.
    """
    flux = None
    if not params.constant_mobility:
        mval, _ = params.mobility(phi_n.values)
        flux = mac.gradient_force(mval - params.mob_const, mu_n)
    return phase_update(phi_n, mu_n, [advect_scalar(v, phi_n)], flux, dt, params)


def ns_step(
    v_n: FaceField,
    phi_n: ScalarField,
    mu_n: ScalarField,
    u_n: FaceField | None,
    dt: float,
    params: PhysParams,
) -> tuple[FaceField, ScalarField]:
    """One momentum step; returns the projected velocity and its pressure."""
    nu = params.nu(phi_n.values)
    # one stencil bundle per term, each dropped once its term is formed; the
    # viscous term, whose bundle holds the most pieces, goes first, while no
    # other term's output is held
    visc = mac.viscous_stress_divergence(nu - params.nu_bar, mac.Stencils(v_n))
    vs = mac.Stencils(v_n)
    adv = mac.momentum_advection(vs, vs)
    del vs
    force = mac.gradient_force(mu_n.values, phi_n)
    return momentum_update(v_n, adv, visc, force, u_n, dt, params)


def _node_diagnostics(state: State, params: PhysParams) -> tuple[float, ...]:
    phi, v = state.phi, state.v
    vol = phi.grid.cell_volume
    mass = float(phi.values.sum() * vol)
    mu, omega = mu_of_phi(phi, params)  # omega built once, for both terms
    energy, willmore, gl = free_energy(phi, params, omega)
    gmu = gradient_to_faces(mu)
    del mu, omega
    mval, _ = params.mobility(phi.values)
    diss_mu = (mval * mac.face_dot_to_cells(gmu, gmu).values).sum() * vol
    del gmu
    kinetic = 0.5 * face_inner(v, v)
    nu = params.nu(phi.values)
    vs = mac.Stencils(v)
    diss_v = (2.0 * nu * mac.strain_contraction(vs, vs)).sum() * vol
    dxx, dyy = vs.normal  # the strain's d(vx)/dx and d(vy)/dy sum to the divergence
    div_max = float(np.abs(dxx + dyy).max())
    return mass, energy, willmore, gl, kinetic, diss_v, diss_mu, div_max


def simulate(
    v0: FaceField,
    phi0: ScalarField,
    u: FaceField | StepSeries | None,
    time: TimeSpec,
    params: PhysParams,
) -> Trajectory:
    """Run the forward solver and record the state at every node.

    ``u`` is the body-force series, a face field with a leading step axis or
    a ``StepSeries`` (or None for an unforced run), kept as the trajectory's
    ``control``.  The initial velocity is projected once so the stored v(0)
    is discretely divergence-free.  Fields with a leading batch axis run one
    problem per member in one sweep; so does each step field of the force
    (``ControlProblem.simulate_many``).
    """
    n_steps = time.n_steps
    check_steps(u, phi0.grid, n_steps, "control")

    v0p, _ = project_divergence_free(v0.zero_boundary_normal(), 1.0)
    states = [State(v0p, phi0.copy())]

    v, phi = v0p, phi0
    for n in range(n_steps):
        u_n = u[n] if u is not None else None
        mu = mu_of_phi(phi, params)[0]  # read by this step only
        v, _ = ns_step(v, phi, mu, u_n, time.dt, params)
        phi = ch_step(phi, mu, v, time.dt, params)
        del mu
        check_finite(n + 1, {"phi": phi.values, "v.x": v.x, "v.y": v.y})
        states.append(State(v, phi))
    return Trajectory(time=time, params=params, states=states, control=u)


def energy_balance_residual(traj: Trajectory) -> float:
    """Defect of the integrated energy identity of an unforced run at the
    final time.

    Continuous law: kinetic + free energy at time t plus the accumulated
    viscous and chemical dissipation equals the initial energy.  The
    dissipation is accumulated with the trapezoid rule from nodal rates, so
    the defect is O(dt) for smooth runs.
    """
    d = traj.diagnostics
    dt = traj.time.dt
    total = d["kinetic"] + d["energy"]
    rate = d["dissipation_v"] + d["dissipation_mu"]
    diss = np.concatenate([[0.0], np.cumsum(0.5 * dt * (rate[1:] + rate[:-1]))])
    return float(total[-1] + diss[-1] - total[0])
