"""Cost, reduced gradient, projection and the projected-gradient loop."""

import gc
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from nsch import control
from nsch import (
    BlowUpError,
    ConfigError,
    ControlBounds,
    ControlProblem,
    CostSpec,
    FaceField,
    GridSpec,
    OptimizerOptions,
    PhysParams,
    ScalarField,
    StopReason,
    TimeSpec,
    evaluate_cost,
    optimize,
    project_admissible,
    scalar_inner,
    simulate,
    solve_adjoint,
    solve_linearized,
    stationarity_residual,
)
from nsch.config import bubble_phase, stripe_phase, swirl_velocity
from nsch.control import inner_q, norm_q

import oracles
from conftest import max_abs, random_face, stack_faces


def small_problem(params, alpha1=1.0, alpha2=1.0, alpha3=0.1, n=8, T=0.004, dt=1e-3):
    grid = GridSpec(n, n, 4.0, 4.0)
    ts = TimeSpec(T, dt)
    tgt = stripe_phase(grid)
    cost = CostSpec(alpha1, alpha2, alpha3, [tgt] * (ts.n_steps + 1), tgt)
    return ControlProblem(
        v0=swirl_velocity(grid, 0.5),
        phi0=bubble_phase(grid),
        time=ts,
        params=params,
        cost=cost,
        bounds=ControlBounds(-1.0, 1.0),
    )


def record_iterates(monkeypatch):
    """Record the (u, g) pair of every gradient ``optimize`` forms.

    The optimizer forms g_n through ``control.gradient_step`` as its adjoint
    sweep reaches step n, last step first, and later overwrites the series
    in place, so each step is copied as it is formed and a sweep's steps are
    stacked in step order when ``solve_adjoint`` returns."""
    pairs, steps = [], []

    def recorded_step(u_n, va_n, alpha3):
        g_n = real_step(u_n, va_n, alpha3)
        steps.append((u_n.copy(), g_n.copy()))
        return g_n

    def recorded_sweep(*args, **kwargs):
        out = real_sweep(*args, **kwargs)
        u_steps, g_steps = zip(*steps[::-1])
        pairs.append((stack_faces(u_steps), stack_faces(g_steps)))
        steps.clear()
        return out

    real_step, real_sweep = control.gradient_step, control.solve_adjoint
    monkeypatch.setattr(control, "gradient_step", recorded_step)
    monkeypatch.setattr(control, "solve_adjoint", recorded_sweep)
    return pairs


def stored_series(grid, n_steps):
    """The distinct base arrays of the stored series alive now: the face
    fields on ``grid`` with an ``n_steps``-long step axis."""

    def root(a):
        while a.base is not None:
            a = a.base
        return a

    gc.collect()
    roots = {}
    for f in gc.get_objects():
        if isinstance(f, FaceField) and f.grid == grid and f.x.ndim == 3 and len(f.x) == n_steps:
            roots.setdefault(id(root(f.x)), root(f.x))
    return list(roots.values())


def first_trial_steps(rep):
    """The first trial step of each line search, in order."""
    first = {}
    for row in rep.rows:
        if row[0] > 0:
            first.setdefault(row[0] - 1, row[7])
    return [first[k] for k in sorted(first)]


class TestEvaluateCost:
    def test_perfect_tracking_zero_cost(self, params):
        grid = GridSpec(8, 8, 4.0, 4.0)
        ts = TimeSpec(0.004, 1e-3)
        u = FaceField.zeros(grid, ts.n_steps)
        traj = simulate(FaceField.zeros(grid), bubble_phase(grid), u, ts, params)
        cost = CostSpec(1.0, 1.0, 1.0, [s.phi for s in traj], traj.final.phi)
        j, comps = evaluate_cost(traj, cost)
        assert j == pytest.approx(0.0, abs=1e-16)

    def test_unit_control_on_unit_square(self, params):
        # alpha3 = 2, |u| = 1 in x, |Omega| = 1, T = 1 => J = 1 exactly
        grid = GridSpec(8, 8, 1.0, 1.0)
        ts = TimeSpec(1.0, 0.125)
        u = FaceField.zeros(grid, ts.n_steps)
        for f in u:
            f.x[:, :] = 1.0
        traj = simulate(FaceField.zeros(grid), ScalarField.full(grid, 1.0), u, ts, params)
        zero = ScalarField.zeros(grid)
        cost = CostSpec(0.0, 0.0, 2.0, [zero] * (ts.n_steps + 1), zero)
        j, comps = evaluate_cost(traj, cost)
        assert j == pytest.approx(1.0, rel=1e-13)
        assert comps["control"] == pytest.approx(1.0, rel=1e-13)

    def test_against_double_loop_oracle(self, params, rng):
        grid = GridSpec(6, 5, 1.5, 1.2)
        ts = TimeSpec(0.004, 1e-3)
        n = ts.n_steps
        tgt = [ScalarField(grid, rng.standard_normal((6, 5))) for _ in range(n + 1)]
        cost = CostSpec(0.7, 1.3, 2.1, tgt, tgt[-1])
        u = stack_faces([random_face(grid, rng) for _ in range(n)])
        traj = simulate(FaceField.zeros(grid), bubble_phase(grid), u, ts, params)
        j, _ = evaluate_cost(traj, cost)

        # naive summation oracle
        vol = grid.cell_volume
        jt = 0.0
        for k, s in enumerate(traj):
            w = 0.5 if k in (0, n) else 1.0
            acc = 0.0
            for i in range(grid.nx):
                for jj in range(grid.ny):
                    acc += (s.phi.values[i, jj] - tgt[k].values[i, jj]) ** 2 * vol
            jt += 0.5 * 0.7 * w * ts.dt * acc
        acc = 0.0
        for i in range(grid.nx):
            for jj in range(grid.ny):
                acc += (traj.final.phi.values[i, jj] - tgt[-1].values[i, jj]) ** 2 * vol
        jterm = 0.5 * 1.3 * acc
        jc = 0.0
        for f in u:
            acc = 0.0
            for i in range(grid.nx + 1):
                for jj in range(grid.ny):
                    wgt = 0.5 if i in (0, grid.nx) else 1.0
                    acc += wgt * f.x[i, jj] ** 2 * vol
            for i in range(grid.nx):
                for jj in range(grid.ny + 1):
                    wgt = 0.5 if jj in (0, grid.ny) else 1.0
                    acc += wgt * f.y[i, jj] ** 2 * vol
            jc += 0.5 * 2.1 * ts.dt * acc
        assert j == pytest.approx(jt + jterm + jc, rel=1e-12)

    def test_grid_time_mismatch(self, params):
        # the cost reads the control of the run, so the run rejects a
        # control of the wrong length
        grid = GridSpec(8, 8, 4.0, 4.0)
        ts = TimeSpec(0.004, 1e-3)
        u = FaceField.zeros(grid, 2)
        with pytest.raises(ConfigError, match="2 entries, need 4"):
            simulate(FaceField.zeros(grid), bubble_phase(grid), u, ts, params)


class TestReducedGradient:
    def test_alpha3_zero_returns_va(self, params):
        problem = small_problem(params, alpha3=0.0)
        traj = problem.simulate(None)
        adj = solve_adjoint(traj, problem.cost)
        u = FaceField.zeros(problem.grid, problem.time.n_steps)
        for n in range(problem.time.n_steps):
            g_n = control.gradient_step(u[n], adj[n], problem.cost.alpha3)
            assert np.abs(g_n.x - adj[n].x).max() == 0.0

    def test_zero_adjoint_returns_scaled_u(self, params, rng):
        problem = small_problem(params, alpha1=0.0, alpha2=0.0, alpha3=1.0)
        traj = problem.simulate(None)
        adj = solve_adjoint(traj, problem.cost)
        u = stack_faces([random_face(problem.grid, rng) for _ in range(problem.time.n_steps)])
        for n in range(problem.time.n_steps):
            g_n = control.gradient_step(u[n], adj[n], problem.cost.alpha3)
            assert np.abs(g_n.x - u[n].x).max() < 1e-14

    def test_matches_discrete_cost_derivative(self, params):
        # dt * va(t_n) is the per-face derivative of the tracking part of
        # the discrete cost with respect to the step force u_n (the same
        # quadrature the adjoint source uses); checked by an exact
        # linearized-solver evaluation of single-face impulses
        problem = small_problem(params, alpha3=0.0, T=0.02)
        grid, ts, cost = problem.grid, problem.time, problem.cost
        base = problem.simulate(None)
        adj = solve_adjoint(base, cost)
        n_steps = ts.n_steps

        def tracking_derivative(h):
            lin = solve_linearized(base, h)
            val = cost.alpha2 * scalar_inner(
                base.final.phi - cost.phi_omega, lin[-1]
            )
            for k in range(1, n_steps + 1):
                w = 0.5 if k == n_steps else 1.0
                diff = base[k].phi - cost.phi_q[k]
                val += cost.alpha1 * w * ts.dt * scalar_inner(diff, lin[k])
            return val

        vol = grid.cell_volume
        for step, i, j in ((5, 3, 5), (10, 3, 5), (15, 5, 2)):
            h = FaceField.zeros(grid, n_steps)
            h[step].x[i, j] = 1.0
            exact = tracking_derivative(h)
            approx = ts.dt * vol * adj[step].x[i, j]
            # relative where the derivative carries signal, absolute against
            # the gradient field scale where it nearly vanishes
            scale = ts.dt * vol * np.abs(adj[step].x).max()
            assert abs(approx - exact) <= 2e-2 * max(abs(exact), scale)


class TestProjection:
    def test_componentwise_clamp(self, params):
        grid = GridSpec(6, 6, 1.0, 1.0)
        u = FaceField.zeros(grid, 1)
        u[0].x[2, 2] = 1.5
        u[0].y[2, 2] = -0.3
        p = project_admissible(u, ControlBounds(-1.0, 1.0))
        assert p[0].x[2, 2] == 1.0
        assert p[0].y[2, 2] == -0.3

    def test_idempotent(self, params, rng):
        grid = GridSpec(6, 6, 1.0, 1.0)
        bounds = ControlBounds(-0.5, 0.25)
        u = stack_faces([random_face(grid, rng, scale=2.0) for _ in range(3)])
        p1 = project_admissible(u, bounds)
        p2 = project_admissible(p1, bounds)
        for a, b in zip(p1, p2):
            assert np.abs(a.x - b.x).max() == 0.0
            assert np.abs(a.y - b.y).max() == 0.0

    def test_nonexpansive_on_random_pairs(self, rng):
        grid = GridSpec(6, 6, 1.0, 1.0)
        bounds = ControlBounds(-0.7, 0.4)
        dt = 0.1
        for _ in range(200):
            a = stack_faces([random_face(grid, rng, scale=2.0)])
            b = stack_faces([random_face(grid, rng, scale=2.0)])
            pa = project_admissible(a, bounds)
            pb = project_admissible(b, bounds)
            assert norm_q(pa - pb, dt) <= norm_q(a - b, dt) + 1e-14

    def test_bound_violation_skips_the_pinned_walls(self, params, rng):
        # the projection pins the boundary normal faces to 0, outside this box
        grid = GridSpec(6, 6, 1.0, 1.0)
        bounds = ControlBounds(0.5, 1.0)
        u = project_admissible(stack_faces([random_face(grid, rng, scale=2.0) for _ in range(2)]),
                               bounds)
        assert control.bound_violation(u, bounds) == 0.0
        u.x[1, 3, 2] = 1.25
        assert control.bound_violation(u, bounds) == 0.25
        u.y[0, 2, 3] = 0.125
        assert control.bound_violation(u, bounds) == 0.375
        problem = replace(small_problem(params, alpha3=1e-6), bounds=bounds)
        _, rep = optimize(problem, None, OptimizerOptions(max_iter=1))
        assert rep.max_bound_violation == 0.0

    def test_empty_box_rejected(self):
        with pytest.raises(ConfigError, match="u_min exceeds u_max"):
            ControlBounds(1.0, -1.0)

    def test_bounds_checked_at_construction_and_frozen(self):
        for u_min, u_max in ((1.0, -1.0), (float("nan"), 1.0), (-1.0, float("nan"))):
            with pytest.raises(ConfigError, match="admissible set is empty"):
                ControlBounds(u_min, u_max)
        bounds = ControlBounds(-0.5, 0.5)
        with pytest.raises(FrozenInstanceError):
            bounds.u_min = 1.0


class TestStationarity:
    def test_zero_gradient(self, params, rng):
        grid = GridSpec(6, 6, 1.0, 1.0)
        bounds = ControlBounds(-1.0, 1.0)
        u = project_admissible(stack_faces([random_face(grid, rng, scale=0.5)]), bounds)
        g = FaceField.zeros(grid, 1)
        assert stationarity_residual(u, g, bounds, 0.1) == 0.0


class TestOptimize:
    def test_pure_control_cost_one_step_to_zero(self, params, rng):
        problem = small_problem(params, alpha1=0.0, alpha2=0.0, alpha3=0.5)
        u0 = stack_faces(
            [random_face(problem.grid, rng, scale=0.3) for _ in range(problem.time.n_steps)]
        )
        u, rep = optimize(problem, u0, OptimizerOptions(tol=1e-10, max_iter=5))
        assert rep.reason is StopReason.CONVERGED
        assert max(max_abs(u_n) for u_n in u) < 1e-14
        assert rep.accepted_J()[-1] == pytest.approx(0.0, abs=1e-20)

    def test_stationary_start_returns_immediately(self, params):
        problem = small_problem(params, alpha1=0.0, alpha2=0.0, alpha3=1.0)
        u0 = FaceField.zeros(problem.grid, problem.time.n_steps)
        u, rep = optimize(problem, u0, OptimizerOptions(tol=1e-6, max_iter=5))
        assert rep.reason is StopReason.CONVERGED
        assert rep.n_simulations == 1
        assert len(rep.rows) == 1

    def test_monotone_accepted_iterates(self, params):
        problem = small_problem(params, alpha3=1e-6, T=0.006, dt=1e-3)
        u, rep = optimize(problem, None, OptimizerOptions(tol=1e-4, max_iter=8))
        j = rep.accepted_J()
        assert (np.diff(j) <= 0).all()
        assert j[-1] < j[0]

    def test_iterates_stay_in_bounds(self, params):
        problem = small_problem(params, alpha3=1e-6, T=0.004)
        problem = replace(problem, bounds=ControlBounds(-0.02, 0.02))
        u, rep = optimize(problem, None, OptimizerOptions(tol=1e-4, max_iter=5))
        assert max(max_abs(u_n) for u_n in u) <= 0.02 + 1e-15

    def test_line_search_failure_reported(self, params):
        problem = small_problem(params, alpha3=1e-6, T=0.004)
        opts = OptimizerOptions(tol=1e-12, max_iter=3, backtrack_max=0, armijo_c1=0.999)
        u, rep = optimize(problem, None, opts)
        assert rep.reason is StopReason.LINE_SEARCH_FAILED

    @pytest.mark.parametrize(
        "opts, reason",
        [(OptimizerOptions(tol=1e-2, max_iter=20), StopReason.CONVERGED),
         (OptimizerOptions(tol=1e-12, max_iter=1), StopReason.MAX_ITER),
         (OptimizerOptions(tol=1e-12, max_iter=3, backtrack_max=0, armijo_c1=0.999),
          StopReason.LINE_SEARCH_FAILED)],
    )
    def test_solve_counts(self, params, monkeypatch, opts, reason):
        # one forward solve per trial, one adjoint per accepted iterate
        calls = {"forward": 0, "adjoint": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(control, "simulate", counted("forward", control.simulate))
        monkeypatch.setattr(control, "solve_adjoint", counted("adjoint", control.solve_adjoint))
        _, rep = optimize(small_problem(params, alpha3=1e-6, T=0.004), None, opts)
        accepted = len(rep.accepted_J()) - 1
        assert rep.reason is reason
        assert rep.n_simulations == calls["forward"] == len(rep.rows)
        assert calls["adjoint"] == accepted + 1

    def test_projected_steps_formed_per_trial(self, params, monkeypatch):
        # an N-step trial forms 3N steps: N in its forward solve, N in the
        # cost and N in the Armijo product (the solve's step check forms none); the
        # first adjoint sweep reads the stored u and forms none, a later one
        # reads the N steps of its accepted trial
        marks, formed = [], [0]

        def counted_step(*args):
            formed[0] += 1
            return real_step(*args)

        def marked(name, fn):
            def wrapper(*args, **kwargs):
                marks.append((name, formed[0]))
                out = fn(*args, **kwargs)
                if name == "sweep":
                    marks.append(("sweep end", formed[0]))
                return out
            return wrapper

        real_step = control.projected_step
        monkeypatch.setattr(control, "projected_step", counted_step)
        monkeypatch.setattr(control, "simulate", marked("forward", control.simulate))
        monkeypatch.setattr(control, "solve_adjoint", marked("sweep", control.solve_adjoint))
        problem = small_problem(params, alpha1=0.0, alpha3=1e-6, T=1.0, dt=0.05)
        problem = replace(problem, bounds=ControlBounds(-10.0, 10.0))
        _, rep = optimize(problem, None, OptimizerOptions(tol=1e-5, max_iter=6))
        n = problem.time.n_steps
        assert any(row[8] == 0 for row in rep.rows)
        trials = [b - a for (name, a), (_, b) in zip(marks[1:], marks[2:]) if name == "forward"]
        sweeps = [b - a for (name, a), (_, b) in zip(marks, marks[1:]) if name == "sweep"]
        assert len(trials) == rep.n_simulations - 1 and trials == [3 * n] * len(trials)
        assert len(sweeps) == len(rep.accepted_J()) > 2
        assert sweeps == [0] + [n] * (len(sweeps) - 1)

    def test_stops_at_the_roundoff_of_J(self, params):
        # after one step the bounds pin the iterate: the projected step's
        # Armijo decrease is far below one ulp of J, so a rejected trial ends
        # the loop instead of a halving through roundoff-level differences
        problem = replace(small_problem(params, alpha3=1e-3, T=0.004),
                          bounds=ControlBounds(-0.05, 0.05))
        _, rep = optimize(problem, None, OptimizerOptions(tol=1e-8, max_iter=10))
        assert rep.reason is StopReason.ROUNDOFF
        assert rep.n_simulations <= 40
        assert rep.rows[-1][6] <= 1e-6 * rep.rows[0][5]  # rows[0][5]: the first |g|

    def test_armijo_on_the_projected_step(self, params):
        # after one step the iterate is stationary with active bounds: the
        # projected step is tiny while |g| is not, so only a decrease
        # measured on the projected step can be met
        problem = small_problem(params, alpha3=1e-6, T=0.006)
        _, rep = optimize(problem, None, OptimizerOptions(tol=1e-6, max_iter=4))
        assert rep.reason is StopReason.CONVERGED
        assert rep.n_simulations == 3

    def test_doubling_fallback_without_positive_curvature(self, params, monkeypatch):
        # a long horizon and a wide box reach iterate pairs with <du, dg> < 0
        problem = small_problem(params, alpha1=0.0, alpha3=1e-6, T=1.0, dt=0.05)
        problem = replace(problem, bounds=ControlBounds(-10.0, 10.0))
        iterates = record_iterates(monkeypatch)
        _, rep = optimize(problem, None, OptimizerOptions(tol=1e-5, max_iter=6))
        dt, step0 = problem.time.dt, 1.0 / problem.cost.alpha3
        first = first_trial_steps(rep)
        accepted = {row[0]: row[7] for row in rep.rows if row[8]}
        assert first[0] == step0
        fallbacks = 0
        for k in range(1, len(first)):
            (u0, g0), (u1, g1) = iterates[k - 1], iterates[k]
            du, dg = u1 - u0, g1 - g0
            curvature = inner_q(du, dg, dt)
            if curvature > 0:
                bb = curvature / inner_q(dg, dg, dt)
                assert first[k] == pytest.approx(min(bb, step0), rel=1e-12)
            else:
                fallbacks += 1
                assert first[k] == min(2.0 * accepted[k], step0)
        assert fallbacks >= 1

    def test_trial_steps_capped_at_step0(self, params, monkeypatch):
        # with alpha3 = 0 the tracking curvature is tiny, so the BB steps are
        # far above step0 = 1
        problem = small_problem(params, alpha3=0.0)
        iterates = record_iterates(monkeypatch)
        _, rep = optimize(problem, None, OptimizerOptions(tol=1e-8, max_iter=3))
        dt = problem.time.dt
        (u0, g0), (u1, g1) = iterates[:2]
        du, dg = u1 - u0, g1 - g0
        assert inner_q(du, dg, dt) / inner_q(dg, dg, dt) > 1.0
        assert max(row[7] for row in rep.rows) == 1.0

    def test_one_trajectory_alive_per_forward_solve(self, params, monkeypatch):
        # the accepted trajectory and every rejected trial are released
        # before the next forward solve starts
        refs, alive_at_start = [], []

        def tracked(*args, **kwargs):
            alive_at_start.append(sum(ref() is not None for ref in refs))
            traj = real(*args, **kwargs)
            refs.append(weakref.ref(traj))
            return traj

        real = control.simulate
        monkeypatch.setattr(control, "simulate", tracked)
        problem = small_problem(params, alpha3=0.1)
        _, rep = optimize(problem, None, OptimizerOptions(tol=1e-8, max_iter=4))
        assert any(row[8] == 0 for row in rep.rows)
        assert len(alive_at_start) == rep.n_simulations > 2
        assert alive_at_start == [0] * rep.n_simulations

    def test_at_most_two_control_series_per_sweep(self, params, monkeypatch):
        # at the last read of each adjoint sweep the optimizer holds u and g
        # alone: a later sweep advances u to the accepted trial in place and
        # builds no du, and the sweep keeps no va; the 10^2 grid and 9 steps
        # are this test's own, so no other test's series is counted
        problem = small_problem(params, alpha3=1e-6, n=10, T=0.009)
        n_steps = problem.time.n_steps
        held_at_last_read = []

        def tracked(base, cost, read):
            def counted(n, va):
                out = read(n, va)
                if n == 0:
                    held_at_last_read.append(len(stored_series(problem.grid, n_steps)))
                return out
            out = real(base, cost, counted)
            assert not any(isinstance(r, FaceField) for r in out)
            return out

        real = control.solve_adjoint
        monkeypatch.setattr(control, "solve_adjoint", tracked)
        _, rep = optimize(problem, None, OptimizerOptions(tol=1e-8, max_iter=4))
        assert any(row[8] == 0 for row in rep.rows)
        assert len(held_at_last_read) == len(rep.accepted_J()) > 2
        assert max(held_at_last_read) <= 2

    def test_two_control_series_allocated_per_run(self, params, monkeypatch):
        # u's projection and g are the run's only series (each trial is
        # formed step by step); counted at every forward solve and at every
        # sweep's last read.  Each base array seen is kept, so a freed one's
        # id cannot be reused for a later allocation.
        problem = small_problem(params, alpha3=1e-6, n=10, T=0.009)
        grid, n_steps = problem.grid, problem.time.n_steps
        seen, held, allocated = {}, [], []

        def count():
            roots = stored_series(grid, n_steps)
            held.append(len(roots))
            for r in roots:
                seen.setdefault(id(r), r)
            allocated.append(len(seen))

        def tracked_forward(*args, **kwargs):
            count()
            return real_forward(*args, **kwargs)

        def tracked_sweep(base, cost, read):
            def counted(n, va):
                out = read(n, va)
                if n == 0:
                    count()
                return out
            return real_sweep(base, cost, counted)

        real_forward, real_sweep = control.simulate, control.solve_adjoint
        monkeypatch.setattr(control, "simulate", tracked_forward)
        monkeypatch.setattr(control, "solve_adjoint", tracked_sweep)
        _, rep = optimize(problem, None, OptimizerOptions(tol=1e-8, max_iter=4))
        assert any(row[8] == 0 for row in rep.rows)
        assert len(allocated) == rep.n_simulations + len(rep.accepted_J()) > 4
        # first forward solve: u; first sweep: u, g; first trial: nothing new
        assert allocated[:3] == [1, 2, 2]
        assert allocated[-1] == 2
        assert max(held) <= 2

    @pytest.mark.parametrize(
        "setup, u0_seed, opts, reason",
        [(dict(alpha1=0.0, alpha2=0.0, alpha3=0.5), 3,
          OptimizerOptions(tol=1e-10, max_iter=5), StopReason.CONVERGED),
         (dict(alpha3=1e-6, T=0.004), None, OptimizerOptions(tol=1e-2, max_iter=20),
          StopReason.CONVERGED),
         (dict(alpha3=1e-6, T=0.006), None, OptimizerOptions(tol=1e-6, max_iter=4),
          StopReason.CONVERGED),
         (dict(alpha3=1e-6, T=0.004), None, OptimizerOptions(tol=1e-12, max_iter=1),
          StopReason.MAX_ITER),
         (dict(alpha3=1e-6, T=0.004), None,
          OptimizerOptions(tol=1e-12, max_iter=3, backtrack_max=0, armijo_c1=0.999),
          StopReason.LINE_SEARCH_FAILED),
         (dict(alpha3=1e-3, T=0.004, bounds=(-0.05, 0.05)), None,
          OptimizerOptions(tol=1e-8, max_iter=10), StopReason.ROUNDOFF),
         # reaches the doubling fallback (test_doubling_fallback_without_positive_curvature)
         (dict(alpha1=0.0, alpha3=1e-6, T=1.0, dt=0.05, bounds=(-10.0, 10.0)), None,
          OptimizerOptions(tol=1e-5, max_iter=6), StopReason.MAX_ITER)],
    )
    def test_matches_the_stored_series_optimizer(self, params, setup, u0_seed, opts, reason):
        setup = dict(setup)
        bounds = ControlBounds(*setup.pop("bounds", (-1.0, 1.0)))
        problem = replace(small_problem(params, **setup), bounds=bounds)
        u0 = None
        if u0_seed is not None:
            rng = np.random.default_rng(u0_seed)
            u0 = stack_faces([random_face(problem.grid, rng, scale=0.3)
                              for _ in range(problem.time.n_steps)])
        u, rep = optimize(problem, u0, opts)
        u_ref, ref = oracles.optimize(problem, u0, opts)
        assert rep.reason is ref.reason is reason
        assert repr(rep.rows) == repr(ref.rows)
        assert repr((rep.n_simulations, rep.max_bound_violation)) == repr(
            (ref.n_simulations, ref.max_bound_violation))
        assert np.array_equal(u.x, u_ref.x) and np.array_equal(u.y, u_ref.y)

    @pytest.mark.parametrize(
        "setup, opts, reason",
        [(dict(alpha3=1e-6, T=0.004), OptimizerOptions(tol=1e-2, max_iter=20),
          StopReason.CONVERGED),
         (dict(alpha3=1e-6, T=0.004), OptimizerOptions(tol=1e-12, max_iter=1),
          StopReason.MAX_ITER),
         (dict(alpha3=1e-6, T=0.004),
          OptimizerOptions(tol=1e-12, max_iter=3, backtrack_max=0, armijo_c1=0.999),
          StopReason.LINE_SEARCH_FAILED),
         (dict(alpha3=1e-3, T=0.004, bounds=(-0.05, 0.05)),
          OptimizerOptions(tol=1e-8, max_iter=10), StopReason.ROUNDOFF)],
    )
    def test_certificate_is_the_projection_formula_residual(self, params, setup, opts, reason):
        # the paper's first-order condition u = P(-va/alpha3), formed from a
        # fresh forward and adjoint solve at the returned control
        setup = dict(setup)
        bounds = ControlBounds(*setup.pop("bounds", (-1.0, 1.0)))
        problem = replace(small_problem(params, **setup), bounds=bounds)
        u, rep = optimize(problem, None, opts)
        assert rep.reason is reason
        va = solve_adjoint(problem.simulate(u), problem.cost)
        scale = -1.0 / problem.cost.alpha3
        ref = norm_q((u_n - project_admissible(va_n * scale, bounds) for u_n, va_n in zip(u, va)),
                     problem.time.dt)
        assert ref > 0.0
        assert rep.certificate == pytest.approx(ref, rel=1e-8)

    def test_mobility_guardrail(self):
        problem = replace(small_problem(PhysParams()), params=PhysParams(mob_amp=0.5))
        with pytest.raises(ConfigError, match="constant unit mobility"):
            optimize(problem, None, OptimizerOptions(max_iter=1))

    def test_report_csv(self, tmp_path, params):
        problem = small_problem(params, alpha3=1e-6, T=0.004)
        _, rep = optimize(problem, None, OptimizerOptions(tol=1e-3, max_iter=2))
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,J,J_track,J_terminal,J_control,grad_norm,stationarity,step,accepted"
        assert len(lines) >= 2


class TestQuadratureAndOptions:
    def test_cost_matches_hand_trapezoid_bit_for_bit(self, params, rng):
        grid = GridSpec(6, 5, 1.5, 1.2)
        ts = TimeSpec(0.004, 1e-3)
        traj = simulate(FaceField.zeros(grid), bubble_phase(grid), None, ts, params)
        n, dt = ts.n_steps, ts.dt
        tgt = [ScalarField(grid, rng.standard_normal((6, 5))) for _ in range(n + 1)]
        cost = CostSpec(0.7, 1.3, 2.1, tgt, tgt[-1])
        _, comps = evaluate_cost(traj, cost)
        j_track = 0.0
        for k, state in enumerate(traj):
            w = 0.5 if k in (0, n) else 1.0
            diff = state.phi - tgt[k]
            j_track += 0.5 * 0.7 * w * dt * scalar_inner(diff, diff)
        assert comps["track"] == j_track

    @pytest.mark.parametrize(
        "kw, name",
        [({"max_iter": -1}, "max_iter"), ({"backtrack_max": -1}, "backtrack"),
         ({"tol": float("nan")}, "tol"), ({"tol": float("inf")}, "tol"),
         ({"tol": -1e-3}, "tol"), ({"armijo_c1": 0.0}, "armijo_c1"),
         ({"armijo_c1": 1.0}, "armijo_c1"), ({"armijo_c1": float("nan")}, "armijo_c1")],
    )
    def test_bad_options_rejected(self, kw, name):
        with pytest.raises(ConfigError, match=f"optimizer.{name}"):
            OptimizerOptions(**kw)

    def test_zero_iterations_allowed(self, params):
        problem = small_problem(params, alpha3=1e-6, T=0.002)
        _, rep = optimize(problem, None, OptimizerOptions(max_iter=0, backtrack_max=0))
        assert rep.reason in (StopReason.CONVERGED, StopReason.MAX_ITER)
        assert rep.n_simulations == 1


class TestSimulateMany:
    def controls(self, problem, rng, members=3):
        return [stack_faces([random_face(problem.grid, rng, scale=0.5)
                             for _ in range(problem.time.n_steps)])
                for _ in range(members)]

    def test_members_equal_sequential_solves(self, params, rng):
        problem = small_problem(params, n=10, T=0.005)
        controls = self.controls(problem, rng)
        for u, traj in zip(controls, problem.simulate_many(controls)):
            ref = problem.simulate(u)
            assert len(traj) == len(ref) == problem.time.n_steps + 1
            for a, b in zip(ref, traj):
                assert set(vars(b)) == {"v", "phi"}
                for x, y in ((a.v.x, b.v.x), (a.v.y, b.v.y), (a.phi.values, b.phi.values)):
                    assert np.array_equal(x, y)
            assert traj.control is u
            assert evaluate_cost(traj, problem.cost) == evaluate_cost(ref, problem.cost)

    def test_member_diagnostics_equal_single_runs(self, params, rng):
        problem = small_problem(params, n=10, T=0.005)
        controls = self.controls(problem, rng)
        for u, traj in zip(controls, problem.simulate_many(controls)):
            ref = problem.simulate(u).diagnostics
            assert traj.diagnostics.keys() == ref.keys()
            for name, values in traj.diagnostics.items():
                assert np.array_equal(values, ref[name])

    def test_blow_up_names_the_member(self, params, rng):
        problem = small_problem(params)
        controls = self.controls(problem, rng)
        controls[1] = controls[1] + 1e12 * controls[1]
        with pytest.raises(BlowUpError, match=r"at step 1 in v\.x of batch member 1$") as err:
            problem.simulate_many(controls)
        assert err.value.step == 1
