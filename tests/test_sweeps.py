"""Lean sweep outputs: ``solve_linearized`` returns the psi series and
``solve_adjoint`` the va series, and nothing else.  The full-state sweeps of
``oracles`` step the same way and keep what the steps carry; their psi and
va match the solvers' bit for bit.  With a per-node map ``read(n, node)``
a sweep returns what the map returns, node by node, and keeps no node."""

import inspect

import numpy as np
import pytest

from nsch import (
    ControlBounds,
    ControlProblem,
    CostSpec,
    FaceField,
    GridSpec,
    ScalarField,
    TimeSpec,
    random_smooth_facefield,
    simulate,
    smooth_direction,
    solve_adjoint,
    solve_linearized,
)
from nsch.config import bubble_phase, stripe_phase, swirl_velocity

from conftest import reachable_arrays, stack_faces
import oracles

GRID = GridSpec(12, 10, 6.0, 5.0)
TIME = TimeSpec(0.004, 1e-3)
SWIRLS = (0.3, 0.6, 0.9)  # the initial swirl of each batch member


def tracking_cost():
    tgt = stripe_phase(GRID)
    return CostSpec(1.0, 1.0, 0.1, [tgt] * (TIME.n_steps + 1), tgt)


@pytest.fixture(params=[1, 3], ids=["single", "batch3"])
def case(request, params):
    """A forced base on one field or on a 3-member batch, its direction and cost."""
    if request.param == 1:
        v0, phi0 = swirl_velocity(GRID, 0.5), bubble_phase(GRID)
    else:
        v0 = stack_faces([swirl_velocity(GRID, a) for a in SWIRLS])
        phi0 = ScalarField(GRID, np.stack([bubble_phase(GRID).values] * 3))
    h = smooth_direction(GRID, TIME, 3)
    return simulate(v0, phi0, h, TIME, params), h, tracking_cost()


def assert_only(obj, expected):
    """``obj`` reaches exactly the ``expected`` arrays, none of them a view
    into a larger buffer."""
    found = list(reachable_arrays(obj))
    assert {id(a) for a in found} == {id(a) for a in expected}
    assert len({id(a) for a in expected}) == len(expected)
    for a in found:
        assert (a if a.base is None else a.base).nbytes == a.nbytes


class TestOracleSweeps:
    def test_psi_bit_identical(self, case, params):
        base, h, _ = case
        lean = solve_linearized(base, h)
        full = oracles.full_linearized_sweep(base, h, params)
        for psi, node in zip(lean, full, strict=True):
            assert np.array_equal(psi.values, node.psi.values)

    def test_va_bit_identical(self, case, params):
        base, _, cost = case
        lean = solve_adjoint(base, cost)
        full = oracles.full_adjoint_sweep(base, cost, params)
        for va, node in zip(lean, full, strict=True):
            assert np.array_equal(va.x, node.va.x) and np.array_equal(va.y, node.va.y)

    def test_batched_va_stacks_and_matches_members(self, case, params):
        base, h, cost = case
        adj = solve_adjoint(base, cost)
        # the zero terminal va carries the batch axes too, so the series stacks
        x, y = np.stack([va.x for va in adj]), np.stack([va.y for va in adj])
        lead = base[0].phi.values.shape[:-2]
        assert x.shape == (TIME.n_steps + 1, *lead, GRID.nx + 1, GRID.ny)
        assert y.shape == (TIME.n_steps + 1, *lead, GRID.nx, GRID.ny + 1)
        if not lead:
            return
        for m, swirl in enumerate(SWIRLS):
            single = simulate(swirl_velocity(GRID, swirl), bubble_phase(GRID), h, TIME, params)
            for k, va in enumerate(solve_adjoint(single, cost)):
                assert np.array_equal(x[k, m], va.x) and np.array_equal(y[k, m], va.y)


class TestLeanStructure:
    def test_sensitivity_holds_only_psi(self, case, params):
        base, h, _ = case
        lin = solve_linearized(base, h)
        assert len(lin) == TIME.n_steps + 1
        assert all(isinstance(psi, ScalarField) for psi in lin)
        assert not lin[0].values.any()  # psi(0) = 0 first
        assert_only(lin, [psi.values for psi in lin])

    def test_adjoint_holds_only_va(self, case, params):
        base, _, cost = case
        adj = solve_adjoint(base, cost)
        # one entry per node, the zero terminal va last: perfbench/run.py
        # reads len(adj) - 1 as the adjoint steps of a traced solve and
        # cross-checks it against the traced adjoint_step calls
        assert len(adj) == TIME.n_steps + 1
        assert not adj[-1].x.any() and not adj[-1].y.any()
        assert_only(adj, [a for va in adj for a in (va.x, va.y)])

    def test_problem_caches_hold_only_profile_mod_psi_and_va(self, params):
        problem = ControlProblem(swirl_velocity(GRID, 0.5), bubble_phase(GRID), TIME, params,
                                 tracking_cost(), ControlBounds())
        h, lin = problem.sensitivity(3)
        # the direction is its space profile and its time modulation, not a series
        held = inspect.getclosurevars(h.build).nonlocals
        profile, mod = held["profile"], held["mod"]
        ref = random_smooth_facefield(GRID, 3)
        assert np.array_equal(profile.x, ref.x) and np.array_equal(profile.y, ref.y)
        assert mod.shape == (TIME.n_steps,)
        assert_only(problem.sensitivity(3),
                    [profile.x, profile.y, mod] + [psi.values for psi in lin])
        adj = problem.base_adjoint
        assert_only(adj, [a for va in adj for a in (va.x, va.y)])


def run_sweep(kind, case, params, read=None):
    """The adjoint or the sensitivity sweep of ``case``, with an optional map."""
    base, h, cost = case
    if kind == "adjoint":
        return solve_adjoint(base, cost, read)
    return solve_linearized(base, h, read)


def node_arrays(node):
    return (node.x, node.y) if isinstance(node, FaceField) else (node.values,)


@pytest.mark.parametrize("kind", ["adjoint", "linearized"])
class TestReadMap:
    def test_called_once_per_node_in_sweep_order(self, case, params, kind):
        calls = []
        out = run_sweep(kind, case, params, lambda n, node: calls.append(n) or -n)
        n_steps = TIME.n_steps
        # the adjoint forms its nodes from T back to 0, the sensitivity from 0 on
        order = range(n_steps, -1, -1) if kind == "adjoint" else range(n_steps + 1)
        assert calls == list(order)
        assert out == [-n for n in range(n_steps + 1)]  # in node order either way

    def test_result_is_the_map_over_the_series(self, case, params, kind):
        def read(n, node):
            return n, [a.copy() for a in node_arrays(node)]

        got = run_sweep(kind, case, params, read)
        want = [read(n, node) for n, node in enumerate(run_sweep(kind, case, params))]
        assert len(got) == len(want) == TIME.n_steps + 1
        for (n, a), (m, b) in zip(got, want):
            assert n == m and len(a) == len(b)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_float_map_keeps_no_array(self, case, params, kind):
        def read(n, node):
            return float(sum((a * a).sum() for a in node_arrays(node)))

        got = run_sweep(kind, case, params, read)
        assert list(reachable_arrays(got)) == []
        assert got == [read(n, node) for n, node in enumerate(run_sweep(kind, case, params))]
