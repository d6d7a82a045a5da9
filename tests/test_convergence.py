"""Observed convergence orders of the forward scheme and its sweeps.

The identity checks relate the solvers to each other; these tests pin the
rates at which they converge, so that a stencil or solver change that
costs the scheme an order fails here.  The scheme is a first-order IMEX
splitting on a second-order MAC grid.

Every study runs the bubble with a unit swirl on the default 16 x 16 box
and default physics; the sensitivity psi (seeded direction 0) and the
adjoint velocity va belong to the stripe tracking problem of ``nsch
verify``.  An order is log2(d_k / d_{k+1}) of two successive differences
d_k, each the root-mean-square of the difference of a field at one
resolution and at the next finer one.  Space differences compare a grid
with the 2 x 2 cell average of the next finer grid (the 2-face average
across the faces for v.x).

A wall layer of width about sqrt(nu t) forms after t = 0.  At T = 0.02 it
is only one or two cells wide on these grids, so the velocity and psi are
not yet in their asymptotic range in space there.  The velocity's space
order is therefore taken at T = 0.2, where the layer (sqrt(0.2) = 0.45)
spans several cells of the finer grids: T is chosen from the layer width,
not from the grid.  psi's space order at T = 0.2 needs the 192^2 sweep
(its 96^2/192^2 pair reads 2.02, the coarser pair 1.45), which costs more
than this file's time budget allows, so it is not pinned here.  Run with
``pytest -s`` to see the observed orders.

The optimizer on ``configs/quick.cfg`` takes the same accepted steps at
two ``refine_config`` levels, so its stop does not hang on the grid.
"""

import os

import numpy as np
import pytest

from nsch import simulate
from nsch.config import (
    RunConfig, build_grid, build_initial, build_optimizer_options, build_params, build_problem,
    build_time, parse_config, refine_config,
)
from nsch.control import StopReason, optimize

TIME_ORDER = 0.9
SPACE_ORDER = 1.8
QUICK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "configs", "quick.cfg")


def config(n, T, dt, **extra):
    return RunConfig({"grid.nx": n, "grid.ny": n, "time.T": T, "time.dt": dt,
                      "init.preset": "bubble", "init.swirl": 1.0, **extra})


def final_state(cfg):
    grid = build_grid(cfg)
    v0, phi0 = build_initial(cfg, grid)
    return simulate(v0, phi0, None, build_time(cfg), build_params(cfg)).final


def rms(a):
    return float(np.sqrt(np.mean(a * a)))


def cell_average(a):
    """The 2 x 2 cell average of a cell field onto the next coarser grid."""
    return 0.25 * (a[0::2, 0::2] + a[1::2, 0::2] + a[0::2, 1::2] + a[1::2, 1::2])


def x_face_average(a):
    """The average of the two fine x-faces that make up each coarse x-face."""
    return 0.5 * (a[0::2, 0::2] + a[0::2, 1::2])


def observed_orders(fields, restrict=lambda a: a):
    """Orders from successive differences of fields at halved resolutions."""
    d = [rms(coarse - restrict(fine)) for coarse, fine in zip(fields, fields[1:])]
    return [float(np.log2(a / b)) for a, b in zip(d, d[1:])]


@pytest.fixture(scope="module")
def orders():
    # time: 32^2 with dt halved three times
    finals = [final_state(config(32, 0.05, 5e-3 / 2**k)) for k in range(4)]
    found = {
        "time phi": observed_orders([s.phi.values for s in finals]),
        "time v.x": observed_orders([s.v.x for s in finals]),
    }
    problems = [build_problem(config(32, 0.02, 1e-3 / 2**k, **{"cost.target": "stripe"}))
                for k in range(4)]
    found["time psi"] = observed_orders([p.sensitivity(0)[1][-1].values for p in problems])
    found["time va.x"] = observed_orders([p.base_adjoint[0].x for p in problems])
    # space: dt = 1e-3 with the grid refined from 24^2 to 192^2
    phis = [final_state(config(n, 0.02, 1e-3)).phi.values for n in (24, 48, 96, 192)]
    found["space phi"] = observed_orders(phis, cell_average)
    # space at T = 0.2 (the wall layer's width, see above), dt = 2e-3
    vxs = [final_state(config(n, 0.2, 2e-3)).v.x for n in (24, 48, 96, 192)]
    found["space v.x"] = observed_orders(vxs, x_face_average)
    print("observed orders: " + ", ".join(
        f"{name} {' '.join(f'{q:.3f}' for q in qs)}" for name, qs in found.items()))
    return found


@pytest.mark.parametrize("name", ["time phi", "time v.x"])
def test_forward_scheme_is_first_order_in_time(orders, name):
    # phi(T) and v.x(T) at T = 0.05, dt 5e-3 -> 6.25e-4
    assert orders[name][-1] >= TIME_ORDER


@pytest.mark.parametrize("name", ["time psi", "time va.x"])
def test_sweeps_are_first_order_in_time(orders, name):
    # psi(T) and va.x(0) at T = 0.02, dt 1e-3 -> 1.25e-4
    assert orders[name][-1] >= TIME_ORDER


def test_phase_field_is_second_order_in_space(orders):
    # phi(T) at T = 0.02 on 24^2 -> 192^2
    assert orders["space phi"][-1] >= SPACE_ORDER


def test_velocity_is_second_order_in_space(orders):
    # v.x(T) at T = 0.2, dt = 2e-3 on 24^2 -> 192^2
    assert orders["space v.x"][-1] >= SPACE_ORDER


def test_optimizer_steps_do_not_depend_on_the_grid():
    # quick.cfg at 32^2, dt = 1e-3 and at 64^2, dt = 5e-4
    cfg = parse_config(QUICK)
    for level in (cfg, refine_config(cfg)):
        _, report = optimize(build_problem(level), None, build_optimizer_options(level))
        assert (report.reason, len(report.accepted_J()) - 1) == (StopReason.CONVERGED, 3)
