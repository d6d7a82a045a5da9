"""Backward adjoint solver: terminal data, homogeneity, superposition,
stored-chain consistency, rest-state decoupling, and a dense oracle."""

import numpy as np
import pytest

from nsch import (
    BlowUpError,
    ConfigError,
    CostSpec,
    FaceField,
    GridSpec,
    PhysParams,
    ScalarField,
    TimeSpec,
    adjoint_terminal,
    divergence_of_faces,
    mu_of_phi,
    simulate,
    solve_adjoint,
)
from nsch.adjoint import adjoint_step
from nsch.config import bubble_phase, stripe_phase, swirl_velocity

from conftest import max_abs, random_scalar, random_solenoidal
import oracles


@pytest.fixture
def base_small(params):
    grid = GridSpec(6, 6, 3.0, 3.0)
    ts = TimeSpec(0.004, 2e-3)
    return simulate(swirl_velocity(grid, 0.5), bubble_phase(grid), None, ts, params)


def tracking_cost(base, alpha1=1.0, alpha2=1.0, alpha3=0.1, target=None):
    grid = base.grid
    n = base.time.n_steps
    tgt = target if target is not None else stripe_phase(grid)
    return CostSpec(alpha1, alpha2, alpha3, [tgt] * (n + 1), tgt)


class TestTerminal:
    def test_alpha2_zero_gives_zero_state(self, base_small, params):
        cost = tracking_cost(base_small, alpha2=0.0)
        va, phia = adjoint_terminal(base_small.final.phi, cost)
        assert max_abs(phia) == 0.0
        assert max_abs(va) == 0.0

    def test_matched_target_gives_zero(self, base_small, params):
        cost = tracking_cost(base_small, target=base_small.final.phi)
        _, phia = adjoint_terminal(base_small.final.phi, cost)
        assert max_abs(phia) < 1e-14

    def test_scaling(self, base_small, params):
        grid = base_small.grid
        tgt = ScalarField(grid, base_small.final.phi.values - 0.5)
        cost = tracking_cost(base_small, alpha2=2.0, target=tgt)
        _, phia = adjoint_terminal(base_small.final.phi, cost)
        assert np.abs(phia.values - 1.0).max() < 1e-13


class TestHomogeneity:
    def test_zero_cost_weights_give_zero_adjoint(self, base_small, params):
        cost = tracking_cost(base_small, alpha1=0.0, alpha2=0.0, alpha3=1.0)
        adj = oracles.full_adjoint_sweep(base_small, cost, params)
        for a in adj:
            assert max_abs(a.phia) == 0.0
            assert max_abs(a.va) == 0.0

    def test_superposition_in_targets(self, base_small, params):
        # the adjoint is linear in the tracking misfits: summing two runs
        # equals one run with doubled weights and the averaged target
        grid = base_small.grid
        ta = stripe_phase(grid)
        tb = bubble_phase(grid)
        adj_a = oracles.full_adjoint_sweep(base_small, tracking_cost(base_small, target=ta), params)
        adj_b = oracles.full_adjoint_sweep(base_small, tracking_cost(base_small, target=tb), params)
        tc = ScalarField(grid, 0.5 * (ta.values + tb.values))
        cost_c = tracking_cost(base_small, alpha1=2.0, alpha2=2.0, target=tc)
        adj_c = oracles.full_adjoint_sweep(base_small, cost_c, params)
        for a, b, c in zip(adj_a, adj_b, adj_c):
            expect = a.phia.values + b.phia.values
            assert np.abs(c.phia.values - expect).max() < 1e-11 * max(
                1.0, np.abs(expect).max()
            )
            expect_v = a.va.x + b.va.x
            assert np.abs(c.va.x - expect_v).max() < 1e-11 * max(
                1.0, np.abs(expect_v).max()
            )


class TestStoredConsistency:
    def test_divergence_free_at_every_node(self, base_small, params):
        cost = tracking_cost(base_small)
        adj = solve_adjoint(base_small, cost)
        for va in adj:
            assert max_abs(divergence_of_faces(va)) < 1e-8


class TestRestStateDecoupling:
    def test_constant_base_keeps_va_zero(self, params):
        # with v = 0 and constant phi the only velocity source phia*grad(phi)
        # vanishes, so the adjoint velocity stays identically zero
        grid = GridSpec(8, 8, 4.0, 4.0)
        ts = TimeSpec(0.004, 1e-3)
        base = simulate(FaceField.zeros(grid), ScalarField.full(grid, 1.0), None, ts, params)
        tgt = stripe_phase(grid)
        cost = CostSpec(1.0, 1.0, 0.1, [tgt] * (ts.n_steps + 1), tgt)
        adj = oracles.full_adjoint_sweep(base, cost, params)
        assert max_abs(adj[0].phia) > 0.0  # sources are active
        for a in adj:
            assert max_abs(a.va) < 1e-13


def rerun(base, params):
    """``base``'s initial data and times, simulated with ``params``."""
    return simulate(base[0].v, base[0].phi, None, base.time, params)


class TestMobilityGuardrail:
    def test_nonconstant_mobility_rejected(self, base_small):
        base = rerun(base_small, PhysParams(mob_amp=0.5))
        cost = tracking_cost(base)
        with pytest.raises(ConfigError, match="constant unit mobility"):
            solve_adjoint(base, cost)

    def test_nonunit_constant_mobility_rejected(self, base_small):
        base = rerun(base_small, PhysParams(mob_const=2.0))
        cost = tracking_cost(base)
        with pytest.raises(ConfigError, match="constant unit mobility"):
            solve_adjoint(base, cost)


def dense_adjoint_step_oracle(b0, b1, phia, va, source, dt, params):
    """Loop-op re-implementation of one backward step with dense solves."""
    from nsch.constitutive import potential_fp, potential_fpp

    grid = b0.phi.grid
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    phi, v = b0.phi.values, b0.v
    mu, omega = (f.values for f in mu_of_phi(b0.phi, params))
    nu, nu_p = params.viscosity(phi)
    fp = potential_fp(phi)
    fpe = fp + params.eta
    s = params.stab

    def lap(f):
        return oracles.loop_laplacian(f, hx, hy)

    lap_cell = oracles.cell_matrix(lambda f: lap(f), nx, ny)
    msys = (
        np.eye(nx * ny)
        - dt * lap_cell @ lap_cell @ lap_cell
        + dt * s * lap_cell @ lap_cell
    )
    z = np.linalg.solve(msys, phia.values.ravel()).reshape(nx, ny)

    gpx, gpy = oracles.loop_gradient(phi, hx, hy)
    fx = np.zeros_like(gpx)
    fy = np.zeros_like(gpy)
    fx[1:-1, :] = 0.5 * (z[1:, :] + z[:-1, :]) * gpx[1:-1, :]
    fy[:, 1:-1] = 0.5 * (z[:, 1:] + z[:, :-1]) * gpy[:, 1:-1]
    project = oracles.dense_projection(nx, ny, hx, hy)
    y_flat, _ = project(oracles.face_vec(va.x - dt * fx, va.y - dt * fy), dt)

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
    y_flat[pinned] = 0.0
    y_flat = np.linalg.solve(a, y_flat)
    yx, yy = oracles.face_unvec(y_flat, nx, ny)

    def chain_t(chi):
        return -fp * lap(chi) + potential_fpp(phi) * omega * chi - lap(fpe * chi) + fp * fpe * chi

    g1 = oracles.loop_advect(yx, yy, phi, hx, hy)
    rest = (
        lap(lap(g1))
        + chain_t(g1)
        + chain_t(lap(z))
        + s * lap(lap(z))
        + oracles.loop_advect(b1.v.x, b1.v.y, z, hx, hy)
        - oracles.loop_advect(yx, yy, mu, hx, hy)
        - 2.0 * nu_p * oracles.loop_strain_contraction(v.x, v.y, yx, yy, hx, hy)
    )
    phia_new = z + dt * rest
    if source is not None:
        phia_new = phia_new + dt * source.values

    visc = oracles.loop_stress_divergence(nu - params.nu_bar, yx, yy, hx, hy)
    adv = oracles.loop_momentum_advection(v.x, v.y, yx, yy, hx, hy)
    stretch = oracles.loop_transpose_gradient(v.x, v.y, yx, yy, hx, hy)
    va_pre = oracles.face_vec(
        yx + dt * (visc[0] + adv[0] - stretch[0]),
        yy + dt * (visc[1] + adv[1] - stretch[1]),
    )
    va_flat, _ = project(va_pre, dt)
    vax, vay = oracles.face_unvec(va_flat, nx, ny)
    return phia_new, vax, vay


class TestDenseOracle:
    def test_single_backward_step_matches(self, base_small, params, rng):
        grid = base_small.grid
        dt = base_small.time.dt
        b0, b1 = base_small[0], base_small[1]
        cost = tracking_cost(base_small)
        va1, phia1 = adjoint_terminal(b1.phi, cost)
        source = ScalarField(grid, random_scalar(grid, rng).values)

        va, phia = adjoint_step(b0, b1, va1, phia1, source, dt, params)
        phia_ref, vax_ref, vay_ref = dense_adjoint_step_oracle(
            b0, b1, phia1, va1, source, dt, params
        )
        assert np.abs(phia.values - phia_ref).max() < 1e-10 * max(
            1.0, np.abs(phia_ref).max()
        )
        assert np.abs(va.x - vax_ref).max() < 1e-10 * max(1.0, np.abs(vax_ref).max())
        assert np.abs(va.y - vay_ref).max() < 1e-10 * max(1.0, np.abs(vay_ref).max())


def term_by_term_phia(b0, b1, adj1, source, dt, params):
    """phia of one backward step with every Laplacian of the scalar couplings
    taken separately: Lap^2(g1) + H^T(g1) + H^T(Lap z) + s Lap^2(z) + ..."""
    from nsch import advect_scalar, helmholtz_poly_solve, laplacian, project_divergence_free
    from nsch import mac
    from nsch.adjoint import _chain_transpose

    phi, s = b0.phi, params.stab
    mu, omega = mu_of_phi(phi, params)
    _, nu_p = params.viscosity(phi.values)
    z = helmholtz_poly_solve(1.0, 0.0, dt * s, dt, adj1.phia)
    y_proj, _ = project_divergence_free(adj1.va - dt * mac.gradient_force(z.values, phi), dt)
    y = mac.solve_face_helmholtz(y_proj, dt * params.nu_bar)
    g1 = advect_scalar(y, phi)
    rest = (
        laplacian(laplacian(g1)).values
        + _chain_transpose(g1, b0.phi, omega, params).values
        + _chain_transpose(laplacian(z), b0.phi, omega, params).values
        + s * laplacian(laplacian(z)).values
        + advect_scalar(b1.v, z).values
        - advect_scalar(y, mu).values
        - 2.0 * nu_p * mac.strain_contraction(mac.Stencils(b0.v), mac.Stencils(y))
    )
    return z.values + dt * rest + dt * source.values


class TestMergedStep:
    @pytest.fixture
    def random_step(self, params, rng):
        from nsch.state import State

        grid = GridSpec(12, 10, 6.0, 5.0)
        dt = 1e-3
        b0, b1 = (
            State(random_solenoidal(grid, rng), bubble_phase(grid) + random_scalar(grid, rng, 0.1))
            for _ in range(2)
        )
        adj1 = oracles.AdjointNode(random_solenoidal(grid, rng), random_scalar(grid, rng))
        return b0, b1, adj1, random_scalar(grid, rng), dt

    def test_matches_term_by_term_formula(self, random_step, params):
        b0, b1, adj1, source, dt = random_step
        _, phia = adjoint_step(b0, b1, *adj1, source, dt, params)
        ref = term_by_term_phia(b0, b1, adj1, source, dt, params)
        assert np.abs(phia.values - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_seven_laplacians_per_step(self, random_step, params, monkeypatch):
        # five for the adjoint terms, two for rebuilding mu and omega at t_n
        import nsch.adjoint
        import nsch.constitutive
        from nsch.grid import laplacian

        calls = []

        def counting(f):
            calls.append(f.values.copy())
            return laplacian(f)

        for module in (nsch.adjoint, nsch.constitutive):
            monkeypatch.setattr(module, "laplacian", counting)
        b0, b1, adj1, source, dt = random_step
        adjoint_step(b0, b1, *adj1, source, dt, params)
        assert len(calls) == 7
        # no Laplacian is taken twice of the same field
        assert not any(np.array_equal(a, b) for i, a in enumerate(calls) for b in calls[:i])

    @pytest.mark.parametrize(
        "step, most", [("forward", 25), ("sensitivity", 54), ("adjoint", 56)]
    )
    def test_stencil_primitives_per_step(self, random_step, params, rng, monkeypatch, step, most):
        # each interpolation and difference is built once per step: the
        # duplicate passes of the sensitivity and adjoint steps cost 62 and 66
        import nsch.grid
        import nsch.mac
        from nsch.constitutive import linearized_chemical_potentials
        from nsch.linearized import linearized_step
        from nsch.state import ns_step

        b0, b1, adj1, source, dt = random_step
        w, psi = random_solenoidal(b0.phi.grid, rng), random_scalar(b0.phi.grid, rng, 0.1)
        mu0, omega0 = mu_of_phi(b0.phi, params)
        theta = linearized_chemical_potentials(psi, b0.phi, omega0, params)
        run = {
            "forward": lambda: ns_step(b0.v, b0.phi, mu0, None, dt, params),
            "sensitivity": lambda: linearized_step(b0, b1, w, psi, theta, mu0, None, dt, params),
            "adjoint": lambda: adjoint_step(b0, b1, *adj1, source, dt, params),
        }[step]
        calls = []

        def counting(fn):
            def counted(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return counted

        for module in (nsch.grid, nsch.mac):
            for name in ("mid", "diff", "to_walls"):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
        monkeypatch.setattr(nsch.mac, "_quad_mean", counting(nsch.mac._quad_mean))
        run()
        assert 0 < len(calls) <= most


class TestBlowUp:
    def test_non_finite_base_names_step_and_field(self, params):
        grid = GridSpec(6, 6, 3.0, 3.0)
        ts = TimeSpec(0.006, 2e-3)
        base = simulate(swirl_velocity(grid, 0.5), bubble_phase(grid), None, ts, params)
        base[1].phi.values[3, 3] = np.nan
        with pytest.raises(BlowUpError, match=r"at step 1 in phia$") as info:
            solve_adjoint(base, tracking_cost(base))
        assert info.value.step == 1
