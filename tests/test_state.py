"""Forward solver: steps, conservation, fixed points, and a dense oracle."""

import dataclasses

import numpy as np
import pytest

from nsch import grid as grid_module
from nsch import (
    BlowUpError,
    ConfigError,
    CostSpec,
    FaceField,
    GridSpec,
    PhysParams,
    ScalarField,
    TimeSpec,
    ch_step,
    constraint_integrals,
    divergence_of_faces,
    energy_balance_residual,
    face_inner,
    free_energy,
    mu_of_phi,
    ns_step,
    simulate,
    smooth_direction,
    solve_adjoint,
    solve_linearized,
)
from nsch.config import bubble_phase, stripe_phase, swirl_velocity
from nsch.state import (
    DIAGNOSTIC_COLUMNS,
    State,
    _node_diagnostics,
    check_finite,
    trapezoid_weights,
)

from conftest import (
    l2_norm, max_abs, random_face, random_scalar, random_solenoidal, reachable_arrays, stack_faces,
)
import oracles


class TestTimeSpec:
    def test_rounding_consistency(self):
        ts = TimeSpec(0.1, 1e-3)
        assert ts.n_steps == 100

    def test_non_integral_ratio_rejected(self):
        with pytest.raises(ConfigError):
            TimeSpec(0.1, 3e-4)
        # half a step over: a remainder, not an interval shorter than a step
        with pytest.raises(ConfigError, match="final time 0.0015 is not an integer multiple"):
            TimeSpec(0.0015, 1e-3)

    def test_overflowing_step_count_rejected(self):
        with pytest.raises(ConfigError, match="not an integer multiple"):
            TimeSpec(0.1, 5e-324)

    @pytest.mark.parametrize("T", [0.0, -0.1, 4e-4, -5e-324])
    def test_interval_shorter_than_a_step_rejected(self, T):
        # T <= 0 is no multiple problem: the interval holds no step at all
        with pytest.raises(ConfigError, match=r"time\.T = .* must cover at least one time step "
                                              r"time\.dt = 0\.001$"):
            TimeSpec(T, 1e-3)

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_nonpositive_step_names_dt(self, dt):
        with pytest.raises(ConfigError, match="time step time.dt must be positive"):
            TimeSpec(0.1, dt)

    def test_refine(self):
        ts = TimeSpec(0.1, 1e-3).refine()
        assert ts.n_steps == 200


class TestChStep:
    def test_pure_phase_fixed_point(self, grid6, params):
        phi = ScalarField.full(grid6, 1.0)
        out = ch_step(phi, mu_of_phi(phi, params)[0], FaceField.zeros(grid6), 1e-3, params)
        assert np.abs(out.values - 1.0).max() < 1e-13

    def test_any_constant_fixed_point(self, grid6, params):
        for c in (-1.0, 0.3, 2.0):
            phi = ScalarField.full(grid6, c)
            out = ch_step(phi, mu_of_phi(phi, params)[0], FaceField.zeros(grid6), 1e-3, params)
            assert np.abs(out.values - c).max() < 1e-12 * max(1.0, abs(c))

    def test_mean_preservation(self, grid65, params, rng):
        phi = random_scalar(grid65, rng, scale=0.5)
        v = random_solenoidal(grid65, rng)
        out = ch_step(phi, mu_of_phi(phi, params)[0], v, 1e-3, params)
        assert abs(out.mean() - phi.mean()) < 1e-13

    def test_mean_preservation_nonconstant_mobility(self, grid65, rng):
        p = PhysParams(mob_amp=0.5)
        phi = random_scalar(grid65, rng, scale=0.5)
        v = random_solenoidal(grid65, rng)
        out = ch_step(phi, mu_of_phi(phi, p)[0], v, 1e-4, p)
        assert abs(out.mean() - phi.mean()) < 1e-13

    def test_constants_fixed_under_nonconstant_mobility(self, grid6):
        # grad(mu) = 0 kills the extra flux, so constants stay fixed points
        p = PhysParams(mob_amp=0.5)
        phi = ScalarField.full(grid6, 0.4)
        out = ch_step(phi, mu_of_phi(phi, p)[0], FaceField.zeros(grid6), 1e-3, p)
        assert np.abs(out.values - 0.4).max() < 1e-13


def dense_ns_step_oracle(v, phi, mu, u, dt, params):
    """Loop-op re-implementation of the momentum step with dense solves."""
    grid = v.grid
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    nu, _ = params.viscosity(phi.values)

    adv = oracles.loop_momentum_advection(v.x, v.y, v.x, v.y, hx, hy)
    visc = oracles.loop_stress_divergence(nu - params.nu_bar, v.x, v.y, hx, hy)
    gpx, gpy = oracles.loop_gradient(phi.values, hx, hy)
    kx = np.zeros_like(gpx)
    ky = np.zeros_like(gpy)
    kx[1:-1, :] = 0.5 * (mu.values[1:, :] + mu.values[:-1, :]) * gpx[1:-1, :]
    ky[:, 1:-1] = 0.5 * (mu.values[:, 1:] + mu.values[:, :-1]) * gpy[:, 1:-1]

    rhs_x = v.x + dt * (-adv[0] + visc[0] + kx + u.x)
    rhs_y = v.y + dt * (-adv[1] + visc[1] + ky + u.y)

    lap_face = oracles.face_matrix(
        lambda vx, vy: oracles.loop_face_laplacian(vx, vy, hx, hy), nx, ny
    )
    dim = lap_face.shape[0]
    # pin boundary normal faces so the dense solve matches the spectral one
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
    v_star = np.linalg.solve(a, rhs_flat)

    project = oracles.dense_projection(nx, ny, hx, hy)
    v_new, p = project(v_star, dt)
    vx, vy = oracles.face_unvec(v_new, nx, ny)
    return FaceField(grid, vx, vy), ScalarField(grid, p.reshape(nx, ny))


class TestNsStep:
    def test_rest_state(self, grid6, params):
        v0 = FaceField.zeros(grid6)
        phi = ScalarField.full(grid6, 1.0)
        mu, _ = mu_of_phi(phi, params)
        v1, p1 = ns_step(v0, phi, mu, None, 1e-3, params)
        assert max_abs(v1) < 1e-14
        assert max_abs(p1) < 1e-14

    def test_pure_gradient_force_absorbed(self, grid6, params, rng):
        # u = grad f with v = 0 and constant phi: the projection removes
        # the gradient; only the O(dt) boundary coupling of the implicit
        # viscous solve survives, so the leakage vanishes at second order
        from nsch.grid import gradient_to_faces

        f = random_scalar(grid6, rng)
        u = gradient_to_faces(f)
        phi = ScalarField.full(grid6, 1.0)
        mu, _ = mu_of_phi(phi, params)

        leak = {}
        for dt in (1e-3, 1e-4):
            v1, p1 = ns_step(FaceField.zeros(grid6), phi, mu, u, dt, params)
            leak[dt] = max_abs(v1) / (dt * max_abs(u))
        assert leak[1e-3] < 0.05
        assert leak[1e-4] < 0.15 * leak[1e-3]
        # pressure absorbs the potential of u
        assert max_abs(p1) > 0.1 * np.abs(f.values - f.values.mean()).max()

    def test_single_step_matches_dense_oracle(self, grid6, params, rng):
        v = random_solenoidal(grid6, rng, scale=0.3)
        phi = random_scalar(grid6, rng, scale=0.4)
        mu, _ = mu_of_phi(phi, params)
        u = random_face(grid6, rng, scale=0.5)
        dt = 2e-3
        v1, p1 = ns_step(v, phi, mu, u, dt, params)
        v_ref, p_ref = dense_ns_step_oracle(v, phi, mu, u, dt, params)
        scale = max(1.0, max_abs(v_ref))
        assert np.abs(v1.x - v_ref.x).max() < 1e-10 * scale
        assert np.abs(v1.y - v_ref.y).max() < 1e-10 * scale
        assert np.abs(p1.values - p_ref.values).max() < 1e-10 * max(1.0, max_abs(p_ref))

    def test_output_divergence_free(self, grid65, params, rng):
        v = random_solenoidal(grid65, rng)
        phi = random_scalar(grid65, rng, scale=0.3)
        mu, _ = mu_of_phi(phi, params)
        v1, _ = ns_step(v, phi, mu, None, 1e-3, params)
        assert max_abs(divergence_of_faces(v1)) < 1e-10 * max(
            1.0, max_abs(v1) / grid65.hx
        )


class TestSimulate:
    def test_equilibrium_trajectory(self, params):
        grid = GridSpec(16, 16, 8.0, 8.0)
        ts = TimeSpec(0.02, 1e-3)
        traj = simulate(
            FaceField.zeros(grid), ScalarField.full(grid, 1.0), None, ts, params
        )
        for s in traj:
            assert np.abs(s.phi.values - 1.0).max() < 1e-13
            assert max_abs(s.v) < 1e-13

    def test_mass_conservation_with_flow(self, params):
        grid = GridSpec(24, 24, 16.0, 16.0)
        ts = TimeSpec(0.05, 1e-3)
        traj = simulate(swirl_velocity(grid, 1.0), bubble_phase(grid), None, ts, params)
        means = np.array([s.phi.mean() for s in traj])
        assert np.abs(means - means[0]).max() <= 1e-12

    def test_divergence_stays_small(self, params):
        grid = GridSpec(16, 16, 16.0, 16.0)
        ts = TimeSpec(0.02, 1e-3)
        traj = simulate(swirl_velocity(grid, 1.0), bubble_phase(grid), None, ts, params)
        assert traj.diagnostics["divergence_max"].max() < 1e-8

    def test_first_order_self_convergence(self, params):
        # phase error between dt and dt/2 runs halves when dt is halved
        grid = GridSpec(16, 16, 16.0, 16.0)
        phi0, v0 = bubble_phase(grid), swirl_velocity(grid, 0.5)
        T = 0.02

        def final_phi(dt):
            return simulate(v0, phi0, None, TimeSpec(T, dt), params).final.phi

        e1 = l2_norm(final_phi(2e-3) - final_phi(1e-3))
        e2 = l2_norm(final_phi(1e-3) - final_phi(5e-4))
        assert 1.7 <= e1 / e2 <= 2.3

    def test_control_length_mismatch(self, grid6, params):
        ts = TimeSpec(0.01, 1e-3)
        u = FaceField.zeros(grid6, 3)
        with pytest.raises(ConfigError, match="control series"):
            simulate(FaceField.zeros(grid6), ScalarField.full(grid6, 1.0), u, ts, params)
        # a single field is not a series: it has no step axis
        with pytest.raises(ConfigError, match="control series has no step axis"):
            simulate(FaceField.zeros(grid6), ScalarField.full(grid6, 1.0),
                     FaceField.zeros(grid6), ts, params)

    def test_blow_up_detection(self, params):
        grid = GridSpec(8, 8, 1.0, 1.0)
        ts = TimeSpec(0.01, 1e-3)
        phi0 = ScalarField.full(grid, 1e7)  # far outside the physical range
        with pytest.raises(BlowUpError, match="step"):
            simulate(FaceField.zeros(grid), phi0, None, ts, params)

    def test_node_diagnostics_match_functionals(self, params, rng):
        grid = GridSpec(24, 20, 16.0, 12.0)
        phi = bubble_phase(grid) + random_scalar(grid, rng, scale=0.1)
        state = State(random_solenoidal(grid, rng), phi)
        mass, energy, willmore, gl = _node_diagnostics(state, params)[:4]
        e_ref, bending_ref, gl_ref = free_energy(phi, params)
        for got, ref in ((mass, constraint_integrals(phi)[0]), (energy, e_ref),
                         (willmore, bending_ref), (gl, gl_ref)):
            assert got == pytest.approx(ref, rel=1e-13)

    def test_batched_diagnostics_raise(self, params):
        # the node diagnostics are single-run sums: a batch must be read per member
        grid = GridSpec(8, 8, 4.0, 4.0)
        v0 = stack_faces([swirl_velocity(grid, a) for a in (0.5, 1.0, 1.5)])
        phi0 = ScalarField(grid, np.stack([bubble_phase(grid).values] * 3))
        traj = simulate(v0, phi0, None, TimeSpec(0.002, 1e-3), params)
        with pytest.raises(ValueError, match="index the batch member or step first"):
            traj.diagnostics

    def test_diagnostics_columns(self, params):
        grid = GridSpec(8, 8, 4.0, 4.0)
        ts = TimeSpec(0.005, 1e-3)
        traj = simulate(FaceField.zeros(grid), bubble_phase(grid), None, ts, params)
        for col in ("mass", "energy", "willmore", "gl", "kinetic",
                    "dissipation_v", "dissipation_mu", "divergence_max"):
            assert len(traj.diagnostics[col]) == ts.n_steps + 1

    def test_negative_eta_regime_stable(self):
        # bending-dominated free energy (eta < 0): still monotone decay
        p = PhysParams(eta=-0.5)
        grid = GridSpec(24, 24, 16.0, 16.0)
        ts = TimeSpec(0.05, 1e-3)
        traj = simulate(swirl_velocity(grid, 1.0), bubble_phase(grid), None, ts, p)
        d = traj.diagnostics
        total = d["kinetic"] + d["energy"]
        assert np.diff(total).max() <= 1e-11
        assert max(max_abs(s.phi) for s in traj) < 1.2
        assert np.abs(d["mass"] - d["mass"][0]).max() < 1e-11

    def test_energy_decay_and_balance_convergence(self, params):
        grid = GridSpec(24, 24, 16.0, 16.0)
        phi0, v0 = bubble_phase(grid), swirl_velocity(grid, 1.0)

        def run(dt):
            traj = simulate(v0, phi0, None, TimeSpec(0.02, dt), params)
            total = traj.diagnostics["kinetic"] + traj.diagnostics["energy"]
            return traj, float(np.diff(total).max())

        traj1, inc1 = run(5e-4)
        traj2, inc2 = run(2.5e-4)
        assert inc1 <= 1e-11
        assert inc2 <= 1e-11
        r1 = energy_balance_residual(traj1)
        r2 = energy_balance_residual(traj2)
        assert 1.7 <= abs(r1) / abs(r2) <= 2.3

    def test_forced_energy_balance(self, params, rng):
        # the work of the body force (trapezoid rule on the nodal power <u_n, v>)
        # closes most of the unforced balance defect of a forced run
        grid = GridSpec(16, 16, 16.0, 16.0)
        ts = TimeSpec(0.02, 5e-4)
        u = stack_faces([random_solenoidal(grid, rng, scale=0.5) for _ in range(ts.n_steps)])
        traj = simulate(FaceField.zeros(grid), bubble_phase(grid), u, ts, params)
        work = sum(0.5 * ts.dt * (face_inner(u_n, traj[n].v)
                                  + face_inner(u_n, traj[n + 1].v))
                   for n, u_n in enumerate(u))
        res_without = energy_balance_residual(traj)
        assert abs(res_without - work) < abs(res_without)


class TestLeanTrajectory:
    """A node is (v, phi): every sweep builds mu and omega from phi, and the
    diagnostics are built on first read."""

    @pytest.fixture
    def traj(self, params):
        grid = GridSpec(12, 10, 8.0, 6.0)
        return simulate(swirl_velocity(grid, 1.0), bubble_phase(grid), None,
                        TimeSpec(0.005, 1e-3), params)

    def test_node_fields_are_exactly_v_phi(self, traj):
        assert [f.name for f in dataclasses.fields(State)] == ["v", "phi"]
        for state in traj:
            assert set(vars(state)) == {"v", "phi"}

    def test_only_v_phi_arrays_reachable(self, traj):
        for state in traj:
            found = {id(a) for a in reachable_arrays(state)}
            assert found == {id(state.v.x), id(state.v.y), id(state.phi.values)}

    def test_mu_recomputed_is_what_the_steps_read(self, params, monkeypatch):
        import nsch.state

        seen = {"ns_step": [], "ch_step": []}

        def spy(name):
            step = getattr(nsch.state, name)

            def spied(*args):
                seen[name].append(args[2 if name == "ns_step" else 1].values.copy())
                return step(*args)
            return spied

        for name in seen:
            monkeypatch.setattr(nsch.state, name, spy(name))
        grid = GridSpec(12, 10, 8.0, 6.0)
        traj = simulate(swirl_velocity(grid, 1.0), bubble_phase(grid), None,
                        TimeSpec(0.005, 1e-3), params)
        assert len(seen["ns_step"]) == len(seen["ch_step"]) == traj.time.n_steps
        for n, (a, b) in enumerate(zip(seen["ns_step"], seen["ch_step"])):
            mu = mu_of_phi(traj[n].phi, params)[0]
            assert np.array_equal(mu.values, a)
            assert np.array_equal(mu.values, b)

    def test_sweeps_build_mu_once_per_node(self, traj, params, monkeypatch):
        import nsch.adjoint
        import nsch.linearized
        import nsch.state

        calls = {"linearized": 0, "adjoint": 0, "state": 0, "theta": 0}

        def counting(module, fn):
            def counted(*args):
                calls[module] += 1
                return fn(*args)
            return counted

        for name, module in (("linearized", nsch.linearized), ("adjoint", nsch.adjoint)):
            monkeypatch.setattr(module, "mu_of_phi", counting(name, module.mu_of_phi))
        # the forward solver's own mu builds: the sweeps must not run them
        monkeypatch.setattr(nsch.state, "mu_of_phi", counting("state", nsch.state.mu_of_phi))
        monkeypatch.setattr(nsch.linearized, "linearized_chemical_potentials",
                            counting("theta", nsch.linearized.linearized_chemical_potentials))
        n_steps = traj.time.n_steps
        tgt = stripe_phase(traj.grid)
        cost = CostSpec(1.0, 1.0, 0.1, [tgt] * (n_steps + 1), tgt)
        solve_linearized(traj, smooth_direction(traj.grid, traj.time, 3))
        solve_adjoint(traj, cost)
        # each sweep builds mu (and the sensitivity theta) once per step, at the
        # node the step leaves: the final node of the sensitivity costs nothing
        assert calls == {"linearized": n_steps, "adjoint": n_steps, "state": 0, "theta": n_steps}

    def test_diagnostics_match_row_by_row_rebuild(self, traj, params):
        rows = [(n, n * traj.time.dt) + _node_diagnostics(s, params)
                for n, s in enumerate(traj)]
        for i, name in enumerate(DIAGNOSTIC_COLUMNS):
            assert np.array_equal(traj.diagnostics[name], np.array([r[i] for r in rows]))

    def test_diagnostics_computed_once_on_first_read(self, params, monkeypatch):
        import nsch.state

        calls = []

        def counting(state, p):
            calls.append(state)
            return _node_diagnostics(state, p)

        monkeypatch.setattr(nsch.state, "_node_diagnostics", counting)
        grid = GridSpec(8, 8, 4.0, 4.0)
        ts = TimeSpec(0.004, 1e-3)
        traj = simulate(swirl_velocity(grid, 0.5), bubble_phase(grid), None, ts, params)
        assert calls == []
        first = traj.diagnostics
        assert len(calls) == ts.n_steps + 1
        assert traj.diagnostics is first
        assert len(calls) == ts.n_steps + 1


class TestSchemeHome:
    """The shared quadrature and blow-up check of the forward, sensitivity and
    adjoint solvers."""

    @pytest.mark.parametrize("n", [1, 2, 7, 100])
    def test_trapezoid_weights(self, n):
        w = trapezoid_weights(n)
        assert len(w) == n + 1
        assert sum(w) == n
        assert w[0] == w[-1] == 0.5 and all(x == 1.0 for x in w[1:-1])

    def test_forward_blow_up_names_step_and_phi(self, params):
        grid = GridSpec(8, 8, 1.0, 1.0)
        ts = TimeSpec(0.01, 1e-3)
        phi0 = ScalarField.full(grid, 1e7)
        with pytest.raises(BlowUpError, match=r"at step 1 in phi$") as info:
            simulate(FaceField.zeros(grid), phi0, None, ts, params)
        assert info.value.step == 1

    def test_check_finite_bounds_only_the_bounded_fields(self):
        big, bad = np.full(3, 1e7), np.array([0.0, np.nan])
        check_finite(4, {"psi": np.zeros(3)}, {"w.x": big})  # no bound on w
        with pytest.raises(BlowUpError, match=r"at step 4 in psi$"):
            check_finite(4, {"psi": big}, {"w.x": np.zeros(3)})
        with pytest.raises(BlowUpError, match=r"at step 4 in w.y$"):
            check_finite(4, {"psi": np.zeros(3)}, {"w.x": big, "w.y": bad})


@pytest.fixture
def restore_fft_workers():
    saved = grid_module.fft_workers()
    yield
    grid_module.set_fft_workers(saved)


class TestFftWorkers:
    def test_two_workers_bit_identical(self, params, restore_fft_workers):
        # a batched problem, so the transforms have lines to share out
        grid = GridSpec(12, 10, 6.0, 5.0)
        ts = TimeSpec(0.004, 1e-3)
        v0 = stack_faces([swirl_velocity(grid, a) for a in (0.3, 0.6, 0.9)])
        phi0 = ScalarField(grid, np.stack([bubble_phase(grid).values] * 3))
        h = smooth_direction(grid, ts, 3)
        tgt = stripe_phase(grid)
        cost = CostSpec(1.0, 1.0, 0.1, [tgt] * (ts.n_steps + 1), tgt)

        def solve(workers):
            grid_module.set_fft_workers(workers)
            base = simulate(v0, phi0, h, ts, params)
            # the solvers' psi and va series, and the full states their steps carry
            lin = oracles.full_linearized_sweep(base, h, params)
            adj = oracles.full_adjoint_sweep(base, cost, params)
            return ([a for s in base for a in (s.v.x, s.v.y, s.phi.values)]
                    + [psi.values for psi in solve_linearized(base, h)]
                    + [a for va in solve_adjoint(base, cost) for a in (va.x, va.y)]
                    + [a for s in lin for a in (s.w.x, s.w.y, s.psi.values, s.theta.values)]
                    + [a for s in adj for a in (s.va.x, s.va.y, s.phia.values)])

        one, two = solve(1), solve(2)
        assert one[0].shape == (3, 13, 10) and one[-1].shape == (3, 12, 10)
        assert all(np.array_equal(a, b) for a, b in zip(one, two, strict=True))
