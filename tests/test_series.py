"""Force series of both kinds: a stored ``FaceField`` with a leading step axis
and a ``StepSeries`` that forms each step where it is read.  Each names its
grid.  The solvers accept either, check both the same way without forming a
step, and give bit-identical results; the seeded directions, the reference
control and the verification perturbations are step-built."""

import numpy as np
import pytest

from nsch import (
    ConfigError,
    ControlBounds,
    ControlProblem,
    CostSpec,
    FaceField,
    GridSpec,
    StepSeries,
    TimeSpec,
    project_admissible,
    simulate,
    smooth_direction,
    solve_linearized,
)
from nsch import config, control, verification
from nsch.state import check_steps

from conftest import reachable_arrays, stored

GRID = GridSpec(12, 10, 6.0, 5.0)
TIME = TimeSpec(0.004, 1e-3)


@pytest.fixture
def problem(params):
    tgt = config.stripe_phase(GRID)
    cost = CostSpec(1.0, 1.0, 0.1, [tgt] * (TIME.n_steps + 1), tgt)
    return ControlProblem(config.swirl_velocity(GRID, 0.5), config.bubble_phase(GRID), TIME,
                          params, cost, ControlBounds())


@pytest.fixture
def base(problem):
    return problem.base


def assert_same_states(a, b):
    for s, t in zip(a, b, strict=True):
        for x, y in ((s.v.x, t.v.x), (s.v.y, t.v.y), (s.phi.values, t.phi.values)):
            assert np.array_equal(x, y)


class TestCheckSteps:
    def run_both(self, series, base, params):
        """The series as the control of ``simulate`` and as the perturbation
        of ``solve_linearized``; the error message of each."""
        messages = []
        for solve, name in ((lambda: simulate(base[0].v, base[0].phi, series,
                                              TIME, params), "control"),
                            (lambda: solve_linearized(base, series), "perturbation")):
            with pytest.raises(ConfigError, match=f"^{name} series") as err:
                solve()
            messages.append(str(err.value))
        return messages

    def test_wrong_step_count(self, base, params):
        h = smooth_direction(GRID, TimeSpec(0.003, 1e-3), 3)
        for msg in self.run_both(h, base, params):
            assert msg.endswith("has 3 entries, need 4")

    def test_step_field_off_the_grid(self, base, params):
        other = GridSpec(10, 10, 6.0, 5.0)
        h = smooth_direction(other, TIME, 3)
        for msg in self.run_both(h, base, params):
            assert msg.endswith(f"lives on {other}, the run on {GRID}")

    def test_stored_field_without_step_axis(self, base, params):
        for msg in self.run_both(FaceField.zeros(GRID), base, params):
            assert msg.endswith("has no step axis, need 4")

    def test_stored_series_off_the_grid(self, base, params):
        other = GridSpec(12, 12, 6.0, 5.0)
        for msg in self.run_both(stored(smooth_direction(other, TIME, 3)), base, params):
            assert msg.endswith(f"lives on {other}, the run on {GRID}")

    def test_same_shape_other_lengths(self, base, params):
        # a series on a grid of the run's shape but other edge lengths
        other = GridSpec(12, 10, 7.0, 5.0)
        h = smooth_direction(other, TIME, 3)
        for series in (h, stored(h)):
            for msg in self.run_both(series, base, params):
                assert msg.endswith(f"lives on {other}, the run on {GRID}")

    def test_check_forms_no_step(self, base, params):
        h = smooth_direction(GRID, TIME, 3)
        calls = []
        counted = StepSeries(GRID, TIME.n_steps, lambda n: calls.append(n) or h[n])
        check_steps(counted, GRID, TIME.n_steps, "control")
        assert calls == []
        # a run forms each step once, as it reads it
        simulate(base[0].v, base[0].phi, counted, TIME, params)
        assert calls == list(range(TIME.n_steps))

    def test_steps_outside_the_series(self):
        h = smooth_direction(GRID, TIME, 3)
        assert len(h) == len(list(h)) == TIME.n_steps
        for n in (-1, TIME.n_steps):
            with pytest.raises(IndexError):
                h[n]


class TestEquivalence:
    @pytest.mark.parametrize("refined", [False, True], ids=["base", "refined"])
    def test_reference_control_is_the_clamped_stored_series(self, refined):
        # step by step, the reference control is the whole-series clamp of
        # the stored direction, bit for bit
        cfg = config.RunConfig({"grid.nx": 12, "grid.ny": 10, "time.T": 0.004, "time.dt": 1e-3,
                                "cost.target_seed": 3, "cost.target_amplitude": 1.7})
        if refined:
            cfg = config.refine_config(cfg)
        grid, time = config.build_grid(cfg), config.build_time(cfg)
        ref = config.reference_control(cfg)
        whole = project_admissible(stored(smooth_direction(grid, time, 3, 1.7)),
                                   config.build_bounds(cfg))
        assert ref.grid == grid and len(ref) == len(whole.x) == time.n_steps
        for n in range(time.n_steps):
            assert np.array_equal(ref[n].x, whole[n].x) and np.array_equal(ref[n].y, whole[n].y)

    def test_simulate_many_either_kind(self, problem):
        h = smooth_direction(problem.grid, problem.time, 3)
        built = verification._perturbations(h, (0.5, -0.25, 1e-3))
        trajs = problem.simulate_many(built)
        for a, b, u in zip(trajs, problem.simulate_many([stored(u) for u in built]), built,
                           strict=True):
            assert_same_states(a, b)
            assert_same_states(a, problem.simulate(u))

    def test_solve_linearized_either_kind(self, base, params):
        h = smooth_direction(GRID, TIME, 3)
        for a, b in zip(solve_linearized(base, h),
                        solve_linearized(base, stored(h)), strict=True):
            assert np.array_equal(a.values, b.values)


class TestStepBuiltPerturbations:
    @pytest.mark.parametrize("check", ["frechet", "gradient"])
    def test_forces_hold_no_step_axis(self, check, problem, monkeypatch):
        grid, n_steps = problem.grid, problem.time.n_steps
        single = {(grid.nx + 1, grid.ny), (grid.nx, grid.ny + 1), (n_steps,)}
        forces = []

        def spy(v0, phi0, u, time, params):
            if u is not None:
                shapes = [a.shape for a in reachable_arrays(u)]
                forces.append((len(u), shapes))
            return simulate(v0, phi0, u, time, params)

        monkeypatch.setattr(control, "simulate", spy)
        verification.verify(problem, check, seed=2)
        assert len(forces) == 1  # one batched sweep
        steps, shapes = forces[0]
        assert steps == n_steps
        # the profiles and modulations of the directions
        assert (grid.nx + 1, grid.ny) in shapes and (n_steps,) in shapes
        assert set(shapes) <= single
