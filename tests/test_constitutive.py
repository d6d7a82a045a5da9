"""Material laws, chemical potentials, energies and their assumptions."""

import numpy as np
import pytest

from nsch import (
    ConfigError,
    CostSpec,
    GridSpec,
    PhysParams,
    ScalarField,
    constraint_integrals,
    free_energy,
    linearized_chemical_potentials,
    mu_of_phi,
    omega_of_phi,
    potential_F,
    potential_f,
    potential_fp,
    potential_fpp,
)

from conftest import max_abs, random_scalar
import oracles


class TestPotential:
    def test_pure_phase_values(self):
        assert potential_F(1.0) == 0.0
        assert potential_F(-1.0) == 0.0
        assert potential_f(1.0) == 0.0
        assert potential_f(-1.0) == 0.0
        assert potential_fp(1.0) == 2.0

    def test_origin_values(self):
        assert potential_F(0.0) == 0.25
        assert potential_f(0.0) == 0.0
        assert potential_fp(0.0) == -1.0
        assert potential_fpp(0.0) == 0.0

    def test_second_derivative(self):
        assert potential_fpp(2.0) == 12.0

    def test_derivative_chain_by_finite_differences(self):
        s = np.linspace(-3, 3, 13)
        h = 1e-6
        fd_f = (potential_F(s + h) - potential_F(s - h)) / (2 * h)
        assert np.abs(fd_f - potential_f(s)).max() < 1e-7
        fd_fp = (potential_f(s + h) - potential_f(s - h)) / (2 * h)
        assert np.abs(fd_fp - potential_fp(s)).max() < 1e-6

    def test_structural_growth_bound(self):
        # s f(s) >= (2 + gamma1) F(s) - gamma2 with gamma1 = gamma2 = 1
        s = np.linspace(-10, 10, 20001)
        lhs = s * potential_f(s)
        rhs = 3.0 * potential_F(s) - 1.0
        assert (lhs >= rhs - 1e-12).all()


class TestViscosityMobility:
    def test_constant_amplitude_zero(self):
        p = PhysParams(nu_amp=0.0)
        nu, nup = p.viscosity(np.linspace(-5, 5, 11))
        assert np.abs(nu - p.nu_bar).max() == 0.0
        assert np.abs(nup).max() == 0.0

    def test_at_origin(self):
        p = PhysParams(nu_bar=1.5, nu_amp=0.3)
        nu, nup = p.viscosity(0.0)
        assert nu == pytest.approx(1.5)
        assert nup == pytest.approx(0.3)

    def test_derivative_matches_finite_difference(self):
        p = PhysParams(nu_bar=1.0, nu_amp=0.2)
        h = 1e-7
        for s in (-2.0, 0.0, 3.0):
            fd = (p.viscosity(s + h)[0] - p.viscosity(s - h)[0]) / (2 * h)
            assert p.viscosity(s)[1] == pytest.approx(fd, abs=1e-8)

    def test_uniform_lower_bounds(self):
        p = PhysParams(nu_bar=1.0, nu_amp=0.4, mob_const=0.5, mob_amp=0.3)
        s = np.linspace(-10, 10, 4001)
        assert (p.viscosity(s)[0] >= p.nu_star - 1e-14).all()
        assert (p.mobility(s)[0] >= p.mob_const - 1e-14).all()

    def test_mobility_derivative_fd(self):
        p = PhysParams(mob_const=1.0, mob_amp=0.5)
        h = 1e-7
        for s in (-1.5, 0.2, 2.0):
            fd = (p.mobility(s + h)[0] - p.mobility(s - h)[0]) / (2 * h)
            assert p.mobility(s)[1] == pytest.approx(fd, abs=1e-8)

    def test_a1_violation_rejected(self):
        with pytest.raises(ConfigError, match="A1 positivity violated"):
            PhysParams(nu_bar=0.01, nu_amp=0.05)

    def test_a2_violation_rejected(self):
        with pytest.raises(ConfigError, match="A2 positivity violated"):
            PhysParams(mob_const=0.0)


class TestChemicalPotentials:
    def test_omega_pure_phase(self, grid6):
        omega = omega_of_phi(ScalarField.full(grid6, 1.0))
        assert max_abs(omega) < 1e-12

    def test_omega_constant_two(self, grid6):
        omega = omega_of_phi(ScalarField.full(grid6, 2.0))
        assert np.abs(omega.values - 6.0).max() < 1e-12

    def test_omega_cosine_against_stencil(self, grid6):
        X, _ = grid6.cell_centers()
        phi = ScalarField(grid6, np.cos(np.pi * X / grid6.lx))
        ref = -oracles.loop_laplacian(phi.values, grid6.hx, grid6.hy) + potential_f(
            phi.values
        )
        assert np.abs(omega_of_phi(phi).values - ref).max() < 1e-12

    def test_mu_pure_phase(self, grid6, params):
        mu, _ = mu_of_phi(ScalarField.full(grid6, 1.0), params)
        assert max_abs(mu) < 1e-12

    def test_mu_constant_two_eta_zero(self, grid6):
        p = PhysParams(eta=0.0)
        mu, omega = mu_of_phi(ScalarField.full(grid6, 2.0), p)
        assert np.abs(mu.values - 66.0).max() < 1e-12
        assert np.abs(omega.values - 6.0).max() < 1e-12

    def test_constant_field_scalar_formula(self, grid6):
        # mu of a constant c is (3c^2 - 1 + eta)(c^3 - c) exactly
        p = PhysParams(eta=0.7)
        for c in (-1.5, 0.3, 2.0):
            mu, _ = mu_of_phi(ScalarField.full(grid6, c), p)
            expect = (3 * c * c - 1 + p.eta) * (c**3 - c)
            assert np.abs(mu.values - expect).max() < 1e-11

    def test_mu_against_dense_oracle(self, params, rng):
        # independently assembled dense Laplacian plus pointwise nonlinearity
        grid = GridSpec(8, 8, 1.0, 1.0)
        phi = random_scalar(grid, rng, scale=0.5)
        lap = oracles.cell_matrix(
            lambda f: oracles.loop_laplacian(f, grid.hx, grid.hy), grid.nx, grid.ny
        )
        omega_ref = -lap @ phi.values.ravel() + potential_f(phi.values).ravel()
        mu_ref = -lap @ omega_ref + (
            potential_fp(phi.values).ravel() + params.eta
        ) * omega_ref
        mu, omega = mu_of_phi(phi, params)
        assert np.abs(omega.values.ravel() - omega_ref).max() < 1e-12 * np.abs(omega_ref).max()
        assert np.abs(mu.values.ravel() - mu_ref).max() < 1e-12 * np.abs(mu_ref).max()

    def test_linearized_chain_is_derivative(self, grid6, params, rng):
        # directional finite difference of mu_of_phi
        phi = random_scalar(grid6, rng, scale=0.4)
        psi = random_scalar(grid6, rng, scale=1.0)
        eps = 1e-6
        mu_p, _ = mu_of_phi(phi + eps * psi, params)
        mu_m, _ = mu_of_phi(phi + (-eps) * psi, params)
        fd = (mu_p.values - mu_m.values) / (2 * eps)
        _, omega = mu_of_phi(phi, params)
        theta = linearized_chemical_potentials(psi, phi, omega, params)
        assert np.abs(theta.values - fd).max() < 1e-5 * max(1.0, np.abs(fd).max())


class TestEnergy:
    def test_pure_phase_zero(self, grid6, params):
        e, bending, gl = free_energy(ScalarField.full(grid6, 1.0), params)
        assert e == pytest.approx(0.0, abs=1e-14)

    def test_zero_phase_unit_square(self):
        grid = GridSpec(8, 8, 1.0, 1.0)
        p = PhysParams(eta=1.0)
        e, bending, gl = free_energy(ScalarField.zeros(grid), p)
        assert e == pytest.approx(0.25, rel=1e-12)
        assert bending == pytest.approx(0.0, abs=1e-14)

    def test_eta_zero_reduces_to_bending(self, grid6, rng):
        phi = random_scalar(grid6, rng, scale=0.5)
        p0 = PhysParams(eta=0.0)
        e0, bending0, gl0 = free_energy(phi, p0)
        assert gl0 == 0.0
        assert e0 == pytest.approx(bending0, rel=1e-14)
        omega = omega_of_phi(phi)
        direct = 0.5 * (omega.values**2).sum() * grid6.cell_volume
        assert bending0 == pytest.approx(direct, rel=1e-13)

    def test_lower_bound_by_quarter_omega_norm(self, grid6, rng):
        # E(phi) >= ||omega||^2 / 4 - C4, with C4 from a dense scan over
        # constant fields (exact for the constant-field family)
        p = PhysParams(eta=-0.5)
        c = np.linspace(-10, 10, 20001)
        excess = -0.25 * potential_f(c) ** 2 - p.eta * potential_F(c)
        c4 = grid6.lx * grid6.ly * max(0.0, excess.max())
        for scale in (0.3, 1.0, 2.0):
            phi = random_scalar(grid6, rng, scale=scale)
            e, _, _ = free_energy(phi, p)
            omega = omega_of_phi(phi)
            bound = 0.25 * (omega.values**2).sum() * grid6.cell_volume - c4
            assert e >= bound - 1e-10

    def test_constraint_integrals(self, grid6):
        grid = GridSpec(8, 8, 1.0, 1.0)
        a, b = constraint_integrals(ScalarField.zeros(grid))
        assert a == pytest.approx(0.0, abs=1e-14)
        assert b == pytest.approx(0.25, rel=1e-12)
        a1, b1 = constraint_integrals(ScalarField.full(grid6, 1.0))
        assert a1 == pytest.approx(grid6.lx * grid6.ly, rel=1e-12)
        assert b1 == pytest.approx(0.0, abs=1e-14)


def zero_target_cost(grid, alpha1, alpha2, alpha3):
    zero = ScalarField.zeros(grid)
    return CostSpec(alpha1, alpha2, alpha3, [zero] * 3, zero)


class TestCostSpec:
    def test_all_zero_weights_rejected(self, grid6):
        with pytest.raises(ConfigError, match="A6"):
            zero_target_cost(grid6, 0.0, 0.0, 0.0)

    def test_negative_weight_rejected(self, grid6):
        with pytest.raises(ConfigError, match="A6"):
            zero_target_cost(grid6, -1.0, 0.0, 1.0)

    def test_valid(self, grid6):
        spec = zero_target_cost(grid6, 1.0, 0.0, 0.0)
        assert max_abs(spec.phi_q[2]) == 0.0
