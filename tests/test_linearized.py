"""Sensitivity solver: homogeneity, linearity, mean conservation, oracle."""

import numpy as np
import pytest

from nsch import (
    BlowUpError,
    ConfigError,
    FaceField,
    GridSpec,
    PhysParams,
    ScalarField,
    TimeSpec,
    linearized_step,
    simulate,
    smooth_control_series,
    solve_linearized,
)
from nsch.config import bubble_phase, swirl_velocity
from nsch.constitutive import linearized_chemical_potentials
from nsch.verification import phi_l2q_norm

from conftest import random_face, random_scalar, random_solenoidal
import oracles


@pytest.fixture
def base_small(params):
    grid = GridSpec(6, 6, 3.0, 3.0)
    ts = TimeSpec(0.004, 2e-3)
    phi0 = bubble_phase(grid)
    return simulate(swirl_velocity(grid, 0.5), phi0, None, ts, params)


def make_lin_state(base_state, w, psi, params):
    """(w, psi, theta) at ``base_state``, theta the linearized chemical potential."""
    return oracles.LinearizedNode(
        w, psi, linearized_chemical_potentials(psi, base_state.phi, base_state.omega, params)
    )


def step(b0, b1, lin, h, dt, params):
    """One sensitivity step from ``lin`` = (w, psi, theta) at ``b0``; returns (w, psi)."""
    return linearized_step(b0, b1, *lin, b0.mu, h, dt, params)


class TestHomogeneity:
    def test_zero_data_stays_zero(self, base_small, params):
        out = oracles.full_linearized_sweep(base_small, None, params)
        for lin in out:
            assert lin.psi.max_abs() == 0.0
            assert lin.w.max_abs() == 0.0
            assert lin.theta.max_abs() == 0.0

    def test_zero_h_list(self, base_small, params):
        grid = base_small.grid
        h = FaceField.zeros(grid, base_small.time.n_steps)
        out = solve_linearized(base_small, h, params)
        assert out[-1].max_abs() == 0.0


class TestLinearity:
    def test_superposition_single_step(self, base_small, params, rng):
        grid = base_small.grid
        dt = base_small.time.dt
        b0, b1 = base_small.states[0], base_small.states[1]

        w1, psi1 = random_solenoidal(grid, rng), random_scalar(grid, rng)
        w2, psi2 = random_solenoidal(grid, rng), random_scalar(grid, rng)
        h1, h2 = random_face(grid, rng), random_face(grid, rng)
        a, b = 1.3, -0.7

        s1w, s1psi = step(b0, b1, make_lin_state(b0, w1, psi1, params), h1, dt, params)
        s2w, s2psi = step(b0, b1, make_lin_state(b0, w2, psi2, params), h2, dt, params)
        combo_w = FaceField(grid, a * w1.x + b * w2.x, a * w1.y + b * w2.y)
        combo_psi = ScalarField(grid, a * psi1.values + b * psi2.values)
        combo_h = FaceField(grid, a * h1.x + b * h2.x, a * h1.y + b * h2.y)
        s12w, s12psi = step(
            b0, b1, make_lin_state(b0, combo_w, combo_psi, params), combo_h, dt, params
        )
        scale = max(1.0, s12psi.max_abs())
        assert np.abs(s12psi.values - a * s1psi.values - b * s2psi.values).max() < 1e-11 * scale
        assert np.abs(s12w.x - a * s1w.x - b * s2w.x).max() < 1e-11 * max(1.0, s12w.max_abs())

    def test_trajectory_linearity_in_h(self, base_small, params):
        grid, ts = base_small.grid, base_small.time
        h1 = smooth_control_series(grid, ts, 5)
        h2 = smooth_control_series(grid, ts, 9)
        combo = 1.5 * h1 + (-2.0) * h2
        o1 = solve_linearized(base_small, h1, params)
        o2 = solve_linearized(base_small, h2, params)
        o12 = solve_linearized(base_small, combo, params)
        for l12, l1, l2 in zip(o12, o1, o2):
            expect = 1.5 * l1.values - 2.0 * l2.values
            assert np.abs(l12.values - expect).max() < 1e-11 * max(
                1.0, np.abs(expect).max()
            )


class TestMeanConservation:
    def test_psi_mean_stays_zero(self, base_small, params):
        h = smooth_control_series(base_small.grid, base_small.time, 3)
        out = solve_linearized(base_small, h, params)
        for psi in out:
            assert abs(psi.mean()) < 1e-12


class TestAuxiliaryConsistency:
    def test_w_aux_and_theta_recomputable(self, base_small, params):
        h = smooth_control_series(base_small.grid, base_small.time, 3)
        out = oracles.full_linearized_sweep(base_small, h, params)
        for lin, bstate in zip(out, base_small.states):
            theta = linearized_chemical_potentials(lin.psi, bstate.phi, bstate.omega, params)
            assert np.abs(lin.theta.values - theta.values).max() < 1e-12 * max(
                1.0, theta.max_abs()
            )


def dense_linearized_step_oracle(b0, b1, w, psi, h, dt, params):
    """Loop-op re-implementation of one sensitivity step with dense solves."""
    from nsch.constitutive import potential_fp, potential_fpp

    grid = b0.phi.grid
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    phi, v, mu, omega = b0.phi.values, b0.v, b0.mu.values, b0.omega.values
    nu, nu_p = params.viscosity(phi)

    def lap(f):
        return oracles.loop_laplacian(f, hx, hy)

    # linearized chemical chain at the base state
    w_aux = -lap(psi.values) + potential_fp(phi) * psi.values
    theta = (
        -lap(w_aux)
        + potential_fpp(phi) * psi.values * omega
        + (potential_fp(phi) + params.eta) * w_aux
    )

    adv1 = oracles.loop_momentum_advection(w.x, w.y, v.x, v.y, hx, hy)
    adv2 = oracles.loop_momentum_advection(v.x, v.y, w.x, w.y, hx, hy)
    visc1 = oracles.loop_stress_divergence(nu - params.nu_bar, w.x, w.y, hx, hy)
    visc2 = oracles.loop_stress_divergence(nu_p * psi.values, v.x, v.y, hx, hy)

    gpx, gpy = oracles.loop_gradient(phi, hx, hy)
    gsx, gsy = oracles.loop_gradient(psi.values, hx, hy)
    fx = np.zeros_like(gpx)
    fy = np.zeros_like(gpy)
    fx[1:-1, :] = (
        0.5 * (theta[1:, :] + theta[:-1, :]) * gpx[1:-1, :]
        + 0.5 * (mu[1:, :] + mu[:-1, :]) * gsx[1:-1, :]
    )
    fy[:, 1:-1] = (
        0.5 * (theta[:, 1:] + theta[:, :-1]) * gpy[:, 1:-1]
        + 0.5 * (mu[:, 1:] + mu[:, :-1]) * gsy[:, 1:-1]
    )

    rhs_x = w.x + dt * (-adv1[0] - adv2[0] + visc1[0] + visc2[0] + fx + h.x)
    rhs_y = w.y + dt * (-adv1[1] - adv2[1] + visc1[1] + visc2[1] + fy + h.y)

    lap_face = oracles.face_matrix(
        lambda vx, vy: oracles.loop_face_laplacian(vx, vy, hx, hy), nx, ny
    )
    dim = lap_face.shape[0]
    bx = np.zeros((nx + 1, ny), dtype=bool)
    bx[0, :] = bx[-1, :] = True
    by = np.zeros((nx, ny + 1), dtype=bool)
    by[:, 0] = by[:, -1] = True
    pinned = np.concatenate([bx.ravel(), by.ravel()])
    a = np.eye(dim) - dt * params.nu_bar * lap_face
    a[pinned, :] = 0.0
    a[pinned, pinned] = 1.0
    rhs_flat = oracles.face_vec(rhs_x, rhs_y)
    rhs_flat[pinned] = 0.0
    w_star = np.linalg.solve(a, rhs_flat)
    project = oracles.dense_projection(nx, ny, hx, hy)
    w_new_flat, _ = project(w_star, dt)
    wx, wy = oracles.face_unvec(w_new_flat, nx, ny)

    # phase half: dense sixth-order solve
    lap_cell = oracles.cell_matrix(lambda f: lap(f), nx, ny)
    m0, s = params.mob_const, params.stab
    msys = (
        np.eye(nx * ny)
        - dt * m0 * lap_cell @ lap_cell @ lap_cell
        + dt * s * lap_cell @ lap_cell
    )
    lap2psi = lap(lap(psi.values))
    h_field = theta - lap2psi
    rhs_psi = (
        psi.values
        + dt * m0 * lap(h_field)
        + dt * s * lap2psi
        - dt * oracles.loop_advect(wx, wy, phi, hx, hy)
        - dt * oracles.loop_advect(b1.v.x, b1.v.y, psi.values, hx, hy)
    )
    psi_new = np.linalg.solve(msys, rhs_psi.ravel()).reshape(nx, ny)
    return wx, wy, psi_new


class TestDenseOracle:
    def test_single_step_matches(self, base_small, params, rng):
        grid = base_small.grid
        dt = base_small.time.dt
        b0, b1 = base_small.states[0], base_small.states[1]
        w = random_solenoidal(grid, rng, scale=0.4)
        psi = random_scalar(grid, rng, scale=0.4)
        h = random_face(grid, rng, scale=0.5)

        out_w, out_psi = step(b0, b1, make_lin_state(b0, w, psi, params), h, dt, params)
        wx, wy, psi_new = dense_linearized_step_oracle(b0, b1, w, psi, h, dt, params)
        assert np.abs(out_w.x - wx).max() < 1e-10 * max(1.0, np.abs(wx).max())
        assert np.abs(out_w.y - wy).max() < 1e-10 * max(1.0, np.abs(wy).max())
        assert np.abs(out_psi.values - psi_new).max() < 1e-10 * max(
            1.0, np.abs(psi_new).max()
        )


class TestFrozenCoefficients:
    def test_equilibrium_base_gives_time_independent_map(self, params):
        # an equilibrium base makes consecutive one-step matrices identical
        grid = GridSpec(6, 6, 3.0, 3.0)
        ts = TimeSpec(0.004, 2e-3)
        traj = simulate(
            FaceField.zeros(grid), ScalarField.full(grid, 1.0), None, ts, params
        )

        def step_matrix(n):
            dim_w = (grid.nx + 1) * grid.ny + grid.nx * (grid.ny + 1)
            dim = dim_w + grid.nx * grid.ny
            mat = np.zeros((dim, dim))
            for k in range(dim):
                e = np.zeros(dim)
                e[k] = 1.0
                wx, wy = oracles.face_unvec(e[:dim_w], grid.nx, grid.ny)
                psi = e[dim_w:].reshape(grid.nx, grid.ny)
                lin = make_lin_state(
                    traj.states[n], FaceField(grid, wx, wy), ScalarField(grid, psi), params
                )
                out_w, out_psi = step(traj.states[n], traj.states[n + 1], lin, None, ts.dt, params)
                mat[:, k] = np.concatenate(
                    [oracles.face_vec(out_w.x, out_w.y), out_psi.values.ravel()]
                )
            return mat

        m0 = step_matrix(0)
        m1 = step_matrix(1)
        assert np.abs(m0 - m1).max() < 1e-12 * max(1.0, np.abs(m0).max())


class TestFrechetProperty:
    def test_taylor_defect_linear_in_eps(self, params):
        grid = GridSpec(16, 16, 16.0, 16.0)
        ts = TimeSpec(0.02, 1e-3)
        phi0, v0 = bubble_phase(grid), swirl_velocity(grid, 1.0)
        base = simulate(v0, phi0, None, ts, params)
        h = smooth_control_series(grid, ts, 3)
        lin = solve_linearized(base, h, params)

        def defect(eps):
            pert = simulate(v0, phi0, eps * h, ts, params)
            diffs = [
                ScalarField(grid, p.phi.values - b.phi.values - eps * psi.values)
                for p, b, psi in zip(pert.states, base.states, lin)
            ]
            return phi_l2q_norm(diffs, ts.dt) / eps

        e1, e2, e4 = defect(1e-1), defect(5e-2), defect(2.5e-2)
        assert 1.8 <= e1 / e2 <= 2.2
        assert 1.8 <= e2 / e4 <= 2.2

    def test_h_length_mismatch(self, base_small, params):
        with pytest.raises(ConfigError):
            solve_linearized(base_small, FaceField.zeros(base_small.grid, 1), params)
        # a single field is not a series: it has no step axis
        with pytest.raises(ConfigError, match="perturbation series has no step axis"):
            solve_linearized(base_small, FaceField.zeros(base_small.grid), params)


class TestNonconstantMobility:
    def test_still_the_exact_jacobian(self):
        # the flagged mobility flux and its linearization stay a
        # derivative pair: the Taylor defect keeps halving with eps
        p = PhysParams(mob_const=0.8, mob_amp=0.5)
        grid = GridSpec(12, 12, 8.0, 8.0)
        ts = TimeSpec(0.01, 1e-3)
        phi0, v0 = bubble_phase(grid), swirl_velocity(grid, 0.5)
        base = simulate(v0, phi0, None, ts, p)
        h = smooth_control_series(grid, ts, 3)
        lin = solve_linearized(base, h, p)

        def defect(eps):
            pert = simulate(v0, phi0, eps * h, ts, p)
            diffs = [
                ScalarField(grid, a.phi.values - b.phi.values - eps * psi.values)
                for a, b, psi in zip(pert.states, base.states, lin)
            ]
            return phi_l2q_norm(diffs, ts.dt) / eps

        e1, e2 = defect(1e-1), defect(5e-2)
        assert 1.8 <= e1 / e2 <= 2.2


class TestStoredTheta:
    def test_stored_theta_reused_bit_identical(self, base_small, params):
        from nsch.constitutive import mu_of_phi

        h = smooth_control_series(base_small.grid, base_small.time, 3)
        lin_n = oracles.full_linearized_sweep(base_small, h, params)[1]
        b1, b2 = base_small.states[1], base_small.states[2]
        omega = mu_of_phi(b1.phi, params)[1]
        theta = linearized_chemical_potentials(lin_n.psi, b1.phi, omega, params)
        dt = base_small.time.dt
        stored_w, stored_psi = step(b1, b2, lin_n, h[1], dt, params)
        fresh_w, fresh_psi = step(b1, b2, lin_n._replace(theta=theta), h[1], dt, params)
        assert np.array_equal(stored_psi.values, fresh_psi.values)
        assert np.array_equal(stored_w.x, fresh_w.x) and np.array_equal(stored_w.y, fresh_w.y)
        # the step reads the theta it is given rather than rebuilding it
        zeroed = lin_n._replace(theta=ScalarField.zeros(base_small.grid))
        assert not np.array_equal(
            step(b1, b2, zeroed, h[1], dt, params)[1].values, stored_psi.values
        )


def written_out_step(base_n, base_np1, lin_n, h_n, dt, params):
    """The sensitivity step with its own momentum and phase right-hand sides,
    as the stepper computed them before it shared the forward scheme."""
    from nsch import mac
    from nsch.grid import (
        advect_scalar,
        divergence_of_faces,
        helmholtz_poly_solve,
        laplacian,
        project_divergence_free,
    )

    grid = base_n.phi.grid
    w_n, psi_n, theta_n = lin_n.w, lin_n.psi, lin_n.theta
    phi_n, v_n, mu_n = base_n.phi, base_n.v, base_n.mu
    nu, nu_p = params.viscosity(phi_n.values)
    # a fresh stencil bundle per operand, where the stepper shares them
    S = mac.Stencils
    adv = mac.momentum_advection(S(w_n), S(v_n)) + mac.momentum_advection(S(v_n), S(w_n))
    visc = mac.viscous_stress_divergence(
        nu - params.nu_bar, S(w_n)
    ) + mac.viscous_stress_divergence(nu_p * psi_n.values, S(v_n))
    force = mac.gradient_force(theta_n.values, phi_n) + mac.gradient_force(
        mu_n.values, psi_n
    )
    rhs = w_n + dt * (-adv + visc + force)
    if h_n is not None:
        rhs = rhs + dt * h_n
    w_star = mac.solve_face_helmholtz(rhs, dt * params.nu_bar)
    w_np1, _ = project_divergence_free(w_star, dt)

    m0, s = params.mob_const, params.stab
    lap2_psi = laplacian(laplacian(psi_n))
    h_field = ScalarField(grid, theta_n.values - lap2_psi.values)
    rhs_psi = (
        psi_n.values
        + dt * m0 * laplacian(h_field).values
        + dt * s * lap2_psi.values
        - dt * advect_scalar(w_np1, phi_n).values
        - dt * advect_scalar(base_np1.v, psi_n).values
    )
    if not params.constant_mobility:
        mval, m_p = params.mobility(phi_n.values)
        extra = mac.gradient_force(mval - m0, theta_n) + mac.gradient_force(
            m_p * psi_n.values, mu_n
        )
        rhs_psi += dt * divergence_of_faces(extra).values
    psi_np1 = helmholtz_poly_solve(1.0, 0.0, dt * s, dt * m0, ScalarField(grid, rhs_psi))
    return w_np1, psi_np1


class TestSharedScheme:
    """The sensitivity step runs the forward scheme's momentum and phase updates."""

    @pytest.mark.parametrize(
        "p", [PhysParams(), PhysParams(mob_const=0.8, mob_amp=0.3)], ids=["const", "mob"]
    )
    @pytest.mark.parametrize("with_h", [True, False])
    def test_matches_written_out_step_bit_for_bit(self, p, with_h, rng):
        grid = GridSpec(10, 8, 5.0, 4.0)
        ts = TimeSpec(0.004, 2e-3)
        base = simulate(swirl_velocity(grid, 0.5), bubble_phase(grid), None, ts, p)
        b0, b1 = base.states[0], base.states[1]
        lin_n = make_lin_state(
            b0, random_solenoidal(grid, rng), random_scalar(grid, rng, scale=0.1), p
        )
        h_n = random_face(grid, rng) if with_h else None
        out_w, out_psi = step(b0, b1, lin_n, h_n, ts.dt, p)
        w_ref, psi_ref = written_out_step(b0, b1, lin_n, h_n, ts.dt, p)
        assert np.array_equal(out_psi.values, psi_ref.values)
        assert np.array_equal(out_w.x, w_ref.x) and np.array_equal(out_w.y, w_ref.y)

    def test_non_finite_direction_names_step_and_field(self, base_small, params):
        h = smooth_control_series(base_small.grid, base_small.time, 3)
        h[1].x[2, 2] = np.nan
        with pytest.raises(BlowUpError, match=r"at step 2 in psi$") as info:
            solve_linearized(base_small, h, params)
        assert info.value.step == 2
