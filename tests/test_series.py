"""Force series of both kinds: a stored ``FaceField`` with a leading step axis
and a ``StepSeries`` that forms each step where it is read.  The solvers
accept either, check both the same way, and give bit-identical results;
the seeded directions and the verification perturbations are step-built."""

import numpy as np
import pytest

from nsch import (
    ConfigError,
    ControlBounds,
    ControlProblem,
    CostSpec,
    FaceField,
    GridSpec,
    TimeSpec,
    simulate,
    smooth_control_series,
    smooth_direction,
    solve_linearized,
)
from nsch import config, control, verification

from conftest import reachable_arrays

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


def stored(series) -> FaceField:
    """A step-built series stacked into a stored one."""
    steps = list(series)
    return FaceField(steps[0].grid, np.stack([s.x for s in steps]), np.stack([s.y for s in steps]))


def assert_same_states(a, b):
    for s, t in zip(a.states, b.states, strict=True):
        for x, y in ((s.v.x, t.v.x), (s.v.y, t.v.y), (s.p.values, t.p.values),
                     (s.phi.values, t.phi.values)):
            assert np.array_equal(x, y)


class TestCheckSteps:
    def run_both(self, series, base, params):
        """The series as the control of ``simulate`` and as the perturbation
        of ``solve_linearized``; the error message of each."""
        messages = []
        for solve, name in ((lambda: simulate(base.states[0].v, base.states[0].phi, series,
                                              TIME, params), "control"),
                            (lambda: solve_linearized(base, series, params), "perturbation")):
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
            assert "x-face steps of shape (11, 10), the grid needs (13, 10)" in msg

    def test_stored_field_without_step_axis(self, base, params):
        for msg in self.run_both(FaceField.zeros(GRID), base, params):
            assert msg.endswith("has no step axis, need 4")

    def test_stored_series_off_the_grid(self, base, params):
        for msg in self.run_both(smooth_control_series(GridSpec(12, 12, 6.0, 5.0), TIME, 3),
                                 base, params):
            assert "the grid needs (13, 10)" in msg

    def test_steps_outside_the_series(self):
        h = smooth_direction(GRID, TIME, 3)
        assert len(h) == len(list(h)) == TIME.n_steps
        for n in (-1, TIME.n_steps):
            with pytest.raises(IndexError):
                h[n]


class TestEquivalence:
    @pytest.mark.parametrize("refined", [False, True], ids=["base", "refined"])
    def test_direction_steps_are_the_stored_series(self, refined):
        cfg = config.RunConfig({"grid.nx": 12, "grid.ny": 10, "time.T": 0.004, "time.dt": 1e-3})
        if refined:
            cfg = config.refine_config(cfg)
        grid, time = config.build_grid(cfg), config.build_time(cfg)
        h, ref = smooth_direction(grid, time, 3, 0.7), smooth_control_series(grid, time, 3, 0.7)
        assert ref.x.shape[0] == len(h) == time.n_steps
        for n in range(time.n_steps):
            assert np.array_equal(h[n].x, ref[n].x) and np.array_equal(h[n].y, ref[n].y)

    def test_simulate_many_either_kind(self, problem):
        h = smooth_direction(problem.grid, problem.time, 3)
        built = verification._perturbations(problem.grid, h, (0.5, -0.25, 1e-3))
        trajs = problem.simulate_many(built)
        for a, b, u in zip(trajs, problem.simulate_many([stored(u) for u in built]), built,
                           strict=True):
            assert_same_states(a, b)
            assert_same_states(a, problem.simulate(u))

    def test_solve_linearized_either_kind(self, base, params):
        h = smooth_direction(GRID, TIME, 3)
        for a, b in zip(solve_linearized(base, h, params),
                        solve_linearized(base, stored(h), params), strict=True):
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
        # the profiles and modulations of the directions, and the zero u0 step
        assert (grid.nx + 1, grid.ny) in shapes and (n_steps,) in shapes
        assert set(shapes) <= single
