"""Backward-in-time adjoint solver (constant unit mobility).

The adjoint tuple (va, pa, phia, mua, omegaa) runs backward from the
terminal data va(T) = 0, phia(T) = alpha2 (phi(T) - phi_Omega) and supplies
the velocity va that drives the reduced cost gradient alpha3*u + va.

The scalar chain mirrors the forward one in reverse:

    mua    = -Lap(phia) - grad(phi) . va,
    omegaa = -Lap(mua) + (f'(phi) + eta) mua,

and substituting the chain into the scalar adjoint equation exposes the
same leading triharmonic operator as the forward phase equation, so the
stepper marches in reversed time with the identical implicit symbol
(I + dt*(-Lap)^3 + dt*S*Lap^2), solved by the forward scheme's own
``state.phase_solve``; the tracking source uses its ``trapezoid_weights``.

One backward step t_{n+1} -> t_n applies the implicit solves first and the
explicit couplings second, to the smoothed fields:

    z = implicit_scalar_solve(phia_in)          # shared sixth-order symbol
    y = implicit_velocity_solve(project(va_in + dt * phase force))
    phia_out = z + dt * [scalar couplings](z, y) + dt * tracking source
    va_out   = project(y + dt * [velocity couplings](y))

with every coupling term one of the adjoint-system terms: the phase force
-phia grad(phi); the velocity terms div(2(nu(phi)-nu_bar) D va),
(v . grad)va and -(va . grad^T)v; the scalar terms Lap^2(grad(phi) . va)
and the chemical chain remainders, -2 nu'(phi) D(v):grad(va),
grad(phia) . v, -grad(mu) . va, and alpha1 (phi - phi_Q).

Time levels are calibrated against the sensitivity solver (the
duality/gradient checks of the verification suite): base coefficients are
frozen at the left node t_n of the step being transposed -- matching the
forward IMEX -- except the transport of phia itself, which pairs with the
end-of-step velocity v(t_{n+1}) exactly as the forward phase transport
does.  The tracking source alpha1 (phi - phi_Q) enters at its own node
with the trapezoid weight of the cost quadrature (the half-weighted final
node rides along with the terminal data during the first backward step).

``solve_adjoint`` returns the va series only: va is all that its readers
(the reduced gradient, the duality pairing) read.  A reader that needs
less passes a per-node map ``read(n, va_n)`` and gets its results
instead: no va is kept (the refined duality check keeps dt <h_n, va_n>).
The step carries the pair (va, phia) from one node to the next, as the
sensitivity step carries (w, psi); no reader needs mua, omegaa or the
adjoint pressure pa (the two projections' pressures are dropped).  The
step never forms mua or omegaa, and it takes each Laplacian once
(linearity merges the terms that share z and Lap(z)).  The base nodes
store (v, phi) only, so each step rebuilds the base mu and omega at t_n
with one ``mu_of_phi`` call.

This realizes the continuous adjoint system rather than the exact
transpose of the discrete forward map: the velocity advection stencils are
transposed only up to O(h^2), so gradients agree with finite differences
up to discretization error, which the verification suite measures.
"""

from __future__ import annotations

from typing import Callable

from . import mac
from .constitutive import CostSpec, PhysParams, mu_of_phi, potential_fp, potential_fpp
from .errors import ConfigError
from .grid import FaceField, ScalarField, advect_scalar, laplacian, project_divergence_free
from .state import State, Trajectory, check_finite, phase_solve, trapezoid_weights


def require_unit_mobility(params: PhysParams, context: str) -> None:
    """Reject configurations outside the adjoint theory's mobility assumption."""
    if not params.constant_mobility or params.mob_const != 1.0:
        raise ConfigError(
            f"{context} requires constant unit mobility (m = 1): the adjoint "
            "system and the control projection formula are derived under that "
            f"precondition, got mob_const={params.mob_const}, mob_amp={params.mob_amp}"
        )


def adjoint_terminal(phi_t: ScalarField, cost: CostSpec) -> tuple[FaceField, ScalarField]:
    """Terminal condition (va(T), phia(T)) = (0, alpha2 (phi(T) - phi_Omega));
    va carries the batch axes of ``phi_t``, if any."""
    grid = phi_t.grid
    phia = ScalarField(grid, cost.alpha2 * (phi_t.values - cost.phi_omega.values))
    return FaceField.zeros(grid, *phi_t.values.shape[:-2]), phia


def _chain_transpose(
    chi: ScalarField, phi: ScalarField, omega: ScalarField, params: PhysParams
) -> ScalarField:
    """Adjoint of the linearized chemical-potential remainder at the base
    phase field ``phi`` with ``omega = omega_of_phi(phi)``.

    For H(psi) = -Lap(f' psi) + f'' psi omega + (f' + eta)(-Lap psi + f' psi)
    this returns the field satisfying <H(psi), chi> = <psi, H^T(chi)>:

        H^T(chi) = -f' Lap(chi) + f'' omega chi - Lap((f' + eta) chi)
                   + f' (f' + eta) chi.
    """
    fp = potential_fp(phi.values)
    fpe = fp + params.eta
    vals = (
        -fp * laplacian(chi).values
        + potential_fpp(phi.values) * omega.values * chi.values
        - laplacian(ScalarField(chi.grid, fpe * chi.values)).values
        + fp * fpe * chi.values
    )
    return ScalarField(chi.grid, vals)


def adjoint_step(
    base_n: State,
    base_np1: State,
    va_np1: FaceField,
    phia_np1: ScalarField,
    tracking_source: ScalarField | None,
    dt: float,
    params: PhysParams,
) -> tuple[FaceField, ScalarField]:
    """One backward step t_{n+1} -> t_n of the adjoint system; returns
    (va_n, phia_n).

    ``tracking_source`` is the weighted misfit alpha1 * w_n * (phi - phi_Q)
    at the target node t_n (None when alpha1 = 0).
    """
    require_unit_mobility(params, "the adjoint solver")
    grid = base_n.phi.grid
    phi_n, v_n = base_n.phi, base_n.v
    nu, nu_p = params.viscosity(phi_n.values)
    s = params.stab

    # implicit smoothers first: the forward phase symbol (unit mobility is
    # enforced above, so its leading coefficient dt*mob_const is exactly dt)
    z = phase_solve(phia_np1, dt, params)
    force = mac.gradient_force(z.values, phi_n)
    y_pre = va_np1 - dt * force
    y_proj, _ = project_divergence_free(y_pre, dt)
    y = mac.solve_face_helmholtz(y_proj, dt * params.nu_bar)

    # the strain coupling and the velocity couplings, coefficients at t_n,
    # read one stencil block of v_n and y, dropped before the scalar couplings
    vs, ys = mac.Stencils(v_n), mac.Stencils(y)
    strain = mac.strain_contraction(vs, ys)
    velocity_couplings = (
        mac.viscous_stress_divergence(nu - params.nu_bar, ys)
        + mac.momentum_advection(vs, ys)
        - mac.transpose_gradient_term(vs, ys)
    )
    del vs, ys

    # scalar couplings on the smoothed fields, coefficients at t_n; by
    # linearity Lap^2(g1) + s Lap^2(z) = Lap(Lap(g1) + s Lap(z)) and
    # H^T(g1) + H^T(Lap z) = H^T(g1 + Lap z)
    g1 = advect_scalar(y, phi_n)  # grad(phi) . va on cells
    lap_z = laplacian(z)
    mu_n, omega_n = mu_of_phi(phi_n, params)
    rest = (
        laplacian(ScalarField(grid, laplacian(g1).values + s * lap_z.values)).values
        + _chain_transpose(g1 + lap_z, phi_n, omega_n, params).values
        + advect_scalar(base_np1.v, z).values
        - advect_scalar(y, mu_n).values
        - 2.0 * nu_p * strain
    )
    phia_vals = z.values + dt * rest
    if tracking_source is not None:
        phia_vals = phia_vals + dt * tracking_source.values
    phia_n = ScalarField(grid, phia_vals)

    # velocity update on the smoothed field; the trailing projection restores
    # the solenoidal invariant and is transparent to the recursion (the next
    # step projects again)
    va_n, _ = project_divergence_free(y + dt * velocity_couplings, dt)
    return va_n, phia_n


def solve_adjoint(
    base: Trajectory,
    cost: CostSpec,
    read: Callable[[int, FaceField], object] | None = None,
) -> list:
    """March the adjoint system from T back to 0 along a stored trajectory,
    with the physics ``base.params`` that the trajectory was run with.

    Returns va at every node t_0..t_N (index matching the forward
    trajectory), the zero terminal va(T) last.  With a per-node map
    ``read(n, va_n)`` it returns ``read``'s results in that order instead:
    ``read`` runs on each va as the sweep forms it (n = N down to 0, after
    its finiteness check), and no va is kept.
    """
    params, n_steps, dt = base.params, base.time.n_steps, base.time.dt
    require_unit_mobility(params, "the adjoint solver")
    if len(cost.phi_q) != n_steps + 1:
        raise ConfigError(
            f"running target has {len(cost.phi_q)} nodes, need {n_steps + 1}"
        )

    weights = trapezoid_weights(n_steps)

    def source(n: int) -> ScalarField | None:
        if cost.alpha1 == 0.0:
            return None
        misfit = base[n].phi - cost.phi_q[n]
        return ScalarField(base.grid, cost.alpha1 * weights[n] * misfit.values)

    # the half-weighted final tracking node rides along with the terminal data
    va, phia = adjoint_terminal(base.final.phi, cost)
    s_n = source(n_steps)
    if s_n is not None:
        phia = ScalarField(base.grid, phia.values + dt * s_n.values)
    read = read or (lambda n, va: va)
    out = [read(n_steps, va)]

    for n in range(n_steps - 1, -1, -1):
        va, phia = adjoint_step(
            base[n], base[n + 1], va, phia, source(n), dt, params
        )
        # phia is linear in the cost weights, so the phase field's blow-up
        # limit does not bound it: only an inf or NaN is a blow-up
        check_finite(n, {}, {"phia": phia.values, "va.x": va.x, "va.y": va.y})
        out.append(read(n, va))
    out.reverse()
    return out
