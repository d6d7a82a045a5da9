"""Sensitivity solver: the linearization of the forward system around a
stored trajectory.

For a base trajectory (v, phi, with mu and omega of phi) and a force
perturbation h, the sensitivity (w, q, psi, theta) solves the linear system
obtained by differentiating the state system: w is transported by and
against the base flow, sees the variable-viscosity couplings through nu and
nu', and is forced by theta*grad(phi) + mu*grad(psi) + h; psi is
transported by the base flow and by w against the base phase field, with
the linearized chemical chain

    w_aux = -Lap(psi) + f'(phi) psi,
    theta = -Lap(w_aux) + f''(phi) psi omega + (f'(phi) + eta) w_aux.

The discrete stepper below is the exact Jacobian of the forward stepper:
every explicit term is the directional derivative of its forward
counterpart with coefficients frozen at the beginning-of-step base state,
the momentum and phase updates are the forward scheme's own
(``state.momentum_update`` and ``state.phase_update``, so the implicit
symbols are identical by construction), and the phase transport uses the
end-of-step velocities exactly as the forward splitting does.  This makes
superposition exact to roundoff and pushes the defect of the sensitivity
against forward differencing down to the quadratic remainder.

``solve_linearized`` returns the psi series only: psi is all that its
readers (the Frechet defect, the duality pairing) read.  A reader that
needs less passes a per-node map ``read(k, psi_k)`` and gets its results
instead: no psi is kept (the refined duality check keeps the tracking
terms of each psi_k).  The velocity w is
the sweep's carry from one step to the next, and the pressure q is dropped.
The base nodes store (v, phi) only, so at the top of step n the sweep
builds the base (mu, omega) with one ``mu_of_phi`` call and theta_n
(``constitutive.linearized_chemical_potentials``) from them; the final node
costs nothing.

Zero initial data and a divergence-free w imply that the mean of psi stays
exactly zero along the evolution.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import mac
from .constitutive import PhysParams, linearized_chemical_potentials, mu_of_phi
from .grid import FaceField, ScalarField, advect_scalar
from .state import (
    State, StepSeries, Trajectory, check_finite, check_steps, momentum_update, phase_update,
)


def linearized_step(
    base_n: State,
    base_np1: State,
    w_n: FaceField,
    psi_n: ScalarField,
    theta_n: ScalarField,
    mu_n: ScalarField,
    h_n: FaceField | None,
    dt: float,
    params: PhysParams,
) -> tuple[FaceField, ScalarField]:
    """Advance (w, psi) one step along the stored base trajectory; ``mu_n``
    is the chemical potential of ``base_n`` and ``theta_n`` the linearized
    one of ``psi_n`` there."""
    phi_n, v_n = base_n.phi, base_n.v

    nu, nu_p = params.viscosity(phi_n.values)
    # the advection pair shares the stencils of w_n and v_n, dropped before
    # the viscous pair, which reads other pieces of them
    ws, vs = mac.Stencils(w_n), mac.Stencils(v_n)
    adv = mac.momentum_advection(ws, vs) + mac.momentum_advection(vs, ws)
    del ws, vs
    visc = mac.viscous_stress_divergence(
        nu - params.nu_bar, mac.Stencils(w_n)
    ) + mac.viscous_stress_divergence(nu_p * psi_n.values, mac.Stencils(v_n))
    force = mac.gradient_force(theta_n.values, phi_n) + mac.gradient_force(
        mu_n.values, psi_n
    )
    w_np1, _ = momentum_update(w_n, adv, visc, force, h_n, dt, params)

    # phase part: transported by the end-of-step velocities, like the forward
    flux = None
    if not params.constant_mobility:
        mval, m_p = params.mobility(phi_n.values)
        flux = mac.gradient_force(mval - params.mob_const, theta_n) + mac.gradient_force(
            m_p * psi_n.values, mu_n
        )
    transports = [advect_scalar(w_np1, phi_n), advect_scalar(base_np1.v, psi_n)]
    psi_np1 = phase_update(psi_n, theta_n, transports, flux, dt, params)
    return w_np1, psi_np1


def solve_linearized(
    base: Trajectory,
    h: FaceField | StepSeries | None,
    read: Callable[[int, ScalarField], object] | None = None,
) -> list:
    """Solve the sensitivity system with zero initial data along ``base``, with
    its physics ``base.params``, for the force perturbation series ``h`` (a
    force series as in ``simulate``; a step-built one is formed step by step
    inside the sweep).

    Returns psi at every node t_0..t_N, psi(t_0) = 0 first.  With a per-node
    map ``read(k, psi_k)`` it returns ``read``'s results in that order
    instead: ``read`` runs on each psi as the sweep forms it (after its
    finiteness check), and no psi is kept.
    """
    params, n_steps = base.params, base.time.n_steps
    check_steps(h, base.grid, n_steps, "perturbation")

    b0 = base[0]  # zero data with the base's batch axes, if any
    w = FaceField.zeros(base.grid, *b0.phi.values.shape[:-2])
    psi = ScalarField(base.grid, np.zeros_like(b0.phi.values))
    read = read or (lambda k, psi: psi)
    out = [read(0, psi)]
    for n in range(n_steps):
        b = base[n]
        mu, omega = mu_of_phi(b.phi, params)
        theta = linearized_chemical_potentials(psi, b.phi, omega, params)
        h_n = h[n] if h is not None else None
        w, psi = linearized_step(b, base[n + 1], w, psi, theta, mu, h_n,
                                 base.time.dt, params)
        check_finite(n + 1, {"psi": psi.values}, {"w.x": w.x, "w.y": w.y})
        out.append(read(n + 1, psi))
    return out
