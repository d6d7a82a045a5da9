"""Pointwise material laws and energy functionals of the membrane-fluid model.

The model couples an incompressible flow with a sixth-order convective
Cahn-Hilliard equation.  The scalar chain is

    omega = -Lap(phi) + f(phi),
    mu    = -Lap(omega) + (f'(phi) + eta) * omega,

with the classical quartic double well F(s) = (s^2 - 1)^2 / 4, f = F'.
The total free energy splits into a bending (squared omega) part and an
eta-weighted Ginzburg-Landau part,

    E(phi) = 1/2 int omega^2 + eta int (|grad phi|^2 / 2 + F(phi)).

The interface thickness is one: the laws below are written in that
normalization and the quartic well is the only potential.

Model assumptions enforced at construction time (referenced by name in
error messages and in the configuration layer):

* A1: the viscosity law nu(s) = nu_bar + nu_amp*tanh(s) is smooth and
  uniformly positive, nu_* = nu_bar - |nu_amp| > 0;
* A2: the mobility law m(s) = mob_const + mob_amp*tanh(s)^2 is smooth and
  uniformly positive, m_* = mob_const > 0; the default is constant
  mobility (mob_amp = 0), which the adjoint and optimizer require;
* A3: the quartic well satisfies s*f(s) >= (2 + gamma1)*F(s) - gamma2 with
  gamma1 = gamma2 = 1 (its convex part is the whole potential, c_F = 0);
* A6: the tracking weights alpha1..3 are nonnegative and not all zero.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .grid import ScalarField, gradient_to_faces, laplacian


@dataclass(frozen=True)
class PhysParams:
    """Physical parameters and material laws.

    eta weights the Ginzburg-Landau part of the free energy (may be
    negative, giving the functionalized bending energy).  ``stab`` is the
    biharmonic stabilization constant of the semi-implicit stepper; it must
    dominate max |f'| on the phase range, default 2.
    """

    eta: float = 0.5
    nu_bar: float = 1.0
    nu_amp: float = 0.2
    mob_const: float = 1.0
    mob_amp: float = 0.0
    stab: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value):
                raise ConfigError(f"physics parameter '{f.name}' must be finite, got {value}")
        if self.nu_star <= 0.0:
            raise ConfigError(
                "A1 positivity violated: nu_bar - |nu_amp| = "
                f"{self.nu_star:.6g} must be strictly positive"
            )
        if self.mob_const <= 0.0:
            raise ConfigError(
                f"A2 positivity violated: mobility floor {self.mob_const:.6g} "
                "must be strictly positive"
            )
        if self.mob_amp < 0.0:
            raise ConfigError("A2 positivity violated: mob_amp must be nonnegative")
        if self.stab < 0.0:
            raise ConfigError("stabilization constant must be nonnegative")

    @property
    def nu_star(self) -> float:
        """Uniform lower bound of the viscosity law (A1)."""
        return self.nu_bar - abs(self.nu_amp)

    @property
    def constant_mobility(self) -> bool:
        return self.mob_amp == 0.0

    def nu(self, s):
        """The viscosity law nu(s) alone, for scalar or array s."""
        return self._nu_of_tanh(np.tanh(s))

    def viscosity(self, s):
        """Return (nu(s), nu'(s)) for scalar or array s, from one tanh."""
        t = np.tanh(s)
        return self._nu_of_tanh(t), self.nu_amp * (1.0 - t * t)

    def _nu_of_tanh(self, t):
        return self.nu_bar + self.nu_amp * t

    def mobility(self, s):
        """Return (m(s), m'(s)) for scalar or array s."""
        t = np.tanh(s)
        return self.mob_const + self.mob_amp * t * t, 2.0 * self.mob_amp * t * (1.0 - t * t)


# quartic double well F(s) = (s^2-1)^2/4 and derivatives


def potential_F(s):
    s = np.asarray(s, dtype=float)
    return 0.25 * (s * s - 1.0) ** 2


def potential_f(s):
    s = np.asarray(s, dtype=float)
    return s * s * s - s


def potential_fp(s):
    s = np.asarray(s, dtype=float)
    return 3.0 * s * s - 1.0


def potential_fpp(s):
    s = np.asarray(s, dtype=float)
    return 6.0 * s


def omega_of_phi(phi: ScalarField) -> ScalarField:
    """First variation of the Ginzburg-Landau energy: -Lap(phi) + f(phi)."""
    return ScalarField(phi.grid, -laplacian(phi).values + potential_f(phi.values))


def mu_of_phi(phi: ScalarField, params: PhysParams) -> tuple[ScalarField, ScalarField]:
    """Chemical potential mu = -Lap(omega) + (f'(phi) + eta) omega, with omega."""
    omega = omega_of_phi(phi)
    mu = -laplacian(omega).values + (potential_fp(phi.values) + params.eta) * omega.values
    return ScalarField(phi.grid, mu), omega


def linearized_chemical_potentials(
    psi: ScalarField, phi: ScalarField, omega: ScalarField, params: PhysParams
) -> ScalarField:
    """Directional derivative theta of mu at phi in direction psi:

        w_aux = -Lap(psi) + f'(phi) psi        (the derivative of omega),
        theta = -Lap(w_aux) + f''(phi) psi omega + (f'(phi) + eta) w_aux.
    """
    fp = potential_fp(phi.values)
    w_aux = ScalarField(psi.grid, -laplacian(psi).values + fp * psi.values)
    theta = (
        -laplacian(w_aux).values
        + potential_fpp(phi.values) * psi.values * omega.values
        + (fp + params.eta) * w_aux.values
    )
    return ScalarField(psi.grid, theta)


def free_energy(
    phi: ScalarField, params: PhysParams, omega: ScalarField | None = None
) -> tuple[float, float, float]:
    """Total free energy; returns (E, bending_part, gl_part).

    The bending part is int omega^2 / 2; the Ginzburg-Landau part is
    eta * B(phi) = eta * int(|grad phi|^2 / 2 + F(phi)), see
    :func:`constraint_integrals`.  Midpoint (cell sum) quadrature, gradient
    term from face differences.  ``omega`` is ``omega_of_phi(phi)`` when the
    caller has already built it.
    """
    if omega is None:
        omega = omega_of_phi(phi)
    bending = 0.5 * (omega.values**2).sum() * phi.grid.cell_volume
    gl = params.eta * constraint_integrals(phi)[1]
    return bending + gl, bending, gl


def constraint_integrals(phi: ScalarField) -> tuple[float, float]:
    """Volume and area surrogates A(phi) = int phi, B(phi) = int(|grad phi|^2/2 + F)."""
    vol = phi.grid.cell_volume
    a = phi.values.sum() * vol
    g = gradient_to_faces(phi)
    b = 0.5 * ((g.x**2).sum() + (g.y**2).sum()) * vol + potential_F(phi.values).sum() * vol
    return float(a), float(b)


@dataclass
class CostSpec:
    """Tracking-cost data: weights alpha1..3 and target fields.

    phi_q is the running target, one cell field per time node (length
    n_steps + 1); phi_omega is the terminal target.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    phi_q: Sequence[ScalarField]
    phi_omega: ScalarField

    def __post_init__(self):
        if self.alpha1 < 0 or self.alpha2 < 0 or self.alpha3 < 0:
            raise ConfigError("A6 violated: tracking weights must be nonnegative")
        if self.alpha1 == 0 and self.alpha2 == 0 and self.alpha3 == 0:
            raise ConfigError(
                "A6 violated: tracking weights are nonnegative and not all zeros"
            )
        for name in ("alpha1", "alpha2"):
            # the adjoint data, and so the reduced gradient, are linear in
            # these weights, and the optimizer and the gradient check square
            # the gradient
            weight = float(getattr(self, name))
            if weight * weight == np.inf:
                raise ConfigError(
                    f"cost.{name} = {weight:g} is too large: the reduced gradient "
                    "scales with it, and its square overflows"
                )
        if self.alpha3 > 0 and 1.0 / float(self.alpha3) == np.inf:
            raise ConfigError(
                f"cost.alpha3 = {self.alpha3} is too small: the optimizer's first "
                "step 1/alpha3 overflows"
            )
