"""Configuration parsing/validation and the command-line front end."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsch.cli import build_parser, main
from nsch.config import (
    _DEFAULTS,
    RunConfig,
    _read_snapshot,
    build_initial,
    build_grid,
    build_optimizer_options,
    build_params,
    build_problem,
    build_time,
    parse_config,
    refine_config,
)
from nsch.control import optimize
from nsch.errors import ConfigError
from nsch.snapshots import read_face, read_scalar
from nsch.grid import MAX_DOMAIN_EDGE, face_inner, scalar_inner
from nsch.state import PHI_BLOWUP_LIMIT, trapezoid_weights
from nsch.verification import CHECKS, duality_gap, verify, verify_duality

from conftest import max_abs


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL = """
# small test configuration
grid.nx = 12
grid.ny = 12
grid.lx = 8.0
grid.ly = 8.0
time.T = 0.004
time.dt = 1e-3
init.preset = bubble
init.swirl = 0.5
"""

# the default 16 x 16 box on 12^2 cells, tracking a stripe
STRIPE_TARGET = """
grid.nx = 12
grid.ny = 12
time.T = 0.004
time.dt = 1e-3
cost.target = stripe
"""


class TestParsing:
    def test_minimal_file_fills_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "grid.nx = 16\n"))
        assert cfg["grid.nx"] == 16
        assert cfg["grid.ny"] == 64  # default
        assert cfg["physics.eta"] == 0.5
        assert cfg["cost.target"] == "tracking"

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = parse_config(
            write_cfg(tmp_path, "\n# comment\ngrid.nx = 8  # trailing\n\n")
        )
        assert cfg["grid.nx"] == 8

    def test_missing_equals_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, "grid.nx = 8\nbogus line\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config(write_cfg(tmp_path, "grid.nz = 8\n"))

    def test_bad_value_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="grid.nx"):
            parse_config(write_cfg(tmp_path, "grid.nx = pony\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write_cfg(tmp_path, "grid.nx = 8\ngrid.nx = 9\n"))


class TestValidation:
    def test_a1_violation_cited(self):
        cfg = RunConfig({"physics.nu_bar": "0.01", "physics.nu_amp": "0.05"})
        with pytest.raises(ConfigError, match="A1 positivity violated"):
            build_params(cfg)

    def test_a6_violation_cited(self):
        cfg = RunConfig(
            {"cost.alpha1": "0", "cost.alpha2": "0", "cost.alpha3": "0",
             "grid.nx": "8", "grid.ny": "8", "time.T": "0.002"}
        )
        with pytest.raises(ConfigError, match="A6"):
            build_problem(cfg)

    @pytest.mark.parametrize(
        "key, field", [("physics.nu_bar", "nu_bar"), ("physics.eta", "eta"),
                       ("physics.stabilization", "stab")]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_physics_rejected(self, key, field, value):
        with pytest.raises(ConfigError, match=f"'{field}' must be finite"):
            build_params(RunConfig({key: value}))

    def test_unknown_preset(self):
        cfg = RunConfig({"init.preset": "vortex"})
        with pytest.raises(ConfigError, match="preset"):
            build_initial(cfg, build_grid(cfg))

    def test_missing_snapshot_path(self):
        cfg = RunConfig({"init.preset": "snapshot", "init.phi_path": "/nope"})
        with pytest.raises(ConfigError, match="does not exist"):
            build_initial(cfg, build_grid(cfg))

    @pytest.mark.parametrize("key", ["time.T", "time.dt"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_time_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            build_time(RunConfig({key: value}))

    @pytest.mark.parametrize("key", ["init.phi_path", "init.v_path"])
    def test_garbage_snapshot_names_key_and_path(self, tmp_path, key):
        path = tmp_path / "garbage.snap"
        path.write_bytes(b"not a snapshot\n\x00\x01")
        cfg = RunConfig({"init.preset": "snapshot" if key == "init.phi_path" else "bubble",
                         key: str(path)})
        with pytest.raises(ConfigError, match=re.escape(f"{key} '{path}' is not a readable")):
            build_initial(cfg, build_grid(cfg))

    def test_velocity_snapshot_grid_mismatch(self, tmp_path):
        from nsch.snapshots import write_face

        cfg8 = RunConfig({"grid.nx": "8", "grid.ny": "8"})
        path = tmp_path / "v.nschv"
        write_face(path, build_initial(cfg8, build_grid(cfg8))[0], "v")
        cfg = RunConfig({"grid.nx": "12", "grid.ny": "12", "init.v_path": str(path)})
        with pytest.raises(ConfigError, match="init.v_path: snapshot grid does not match"):
            build_initial(cfg, build_grid(cfg))

    @pytest.mark.parametrize(
        "key, value", [("cost.target_seed", "-1"), ("run.seed", "-1"),
                       ("init.radius", "-2"), ("init.width", "-3")]
    )
    def test_negative_seed_or_size_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be nonnegative, got {value}"):
            RunConfig({key: value})

    def test_degenerate_cell_rejected(self):
        with pytest.raises(ConfigError, match=r"grid: cell size lx/nx = \S+ is too small"):
            build_grid(RunConfig({"grid.lx": "1e-300"}))

    def test_contrast_target_keeps_the_dynamics(self):
        # verify runs mass and energy on the stripe-target problem
        base = {"grid.nx": "8", "grid.ny": "8", "time.T": "0.002", "init.swirl": "0.5"}
        tracking = build_problem(RunConfig(base))
        stripe = build_problem(RunConfig({**base, "cost.target": "stripe"}))
        assert (tracking.time, tracking.params) == (stripe.time, stripe.params)
        assert np.array_equal(tracking.phi0.values, stripe.phi0.values)
        assert np.array_equal(tracking.v0.x, stripe.v0.x)
        assert np.array_equal(tracking.v0.y, stripe.v0.y)

    def test_refine_config(self):
        cfg = RunConfig({"grid.nx": "8", "grid.ny": "8", "time.dt": "1e-3"})
        fine = refine_config(cfg)
        assert fine["grid.nx"] == 16
        assert fine["time.dt"] == pytest.approx(5e-4)


class TestPresets:
    def test_equilibrium(self):
        cfg = RunConfig({"init.preset": "equilibrium", "grid.nx": "8", "grid.ny": "8"})
        v0, phi0 = build_initial(cfg, build_grid(cfg))
        assert np.abs(phi0.values - 1.0).max() == 0.0
        assert max_abs(v0) == 0.0

    def test_bubble_range_and_sign(self):
        cfg = RunConfig({"grid.nx": "32", "grid.ny": "32"})
        v0, phi0 = build_initial(cfg, build_grid(cfg))
        assert phi0.values.max() > 0.9  # inside the disc
        assert phi0.values.min() < -0.9
        assert np.abs(phi0.values).max() <= 1.0

    def test_stripe_symmetry(self):
        cfg = RunConfig({"init.preset": "stripe", "grid.nx": "16", "grid.ny": "16"})
        _, phi0 = build_initial(cfg, build_grid(cfg))
        assert np.abs(phi0.values - phi0.values[:, ::-1]).max() < 1e-14

    def test_snapshot_round_trip(self, tmp_path):
        from nsch.snapshots import write_face, write_scalar

        cfg0 = RunConfig({"grid.nx": "8", "grid.ny": "8", "init.swirl": "0.7"})
        v0, phi0 = build_initial(cfg0, build_grid(cfg0))
        ppath = tmp_path / "phi0.nschf"
        vpath = tmp_path / "v0.nschv"
        write_scalar(ppath, phi0, "phi0")
        write_face(vpath, v0, "v0")
        cfg = RunConfig(
            {"grid.nx": "8", "grid.ny": "8", "init.preset": "snapshot",
             "init.phi_path": str(ppath), "init.v_path": str(vpath)}
        )
        v1, phi1 = build_initial(cfg, build_grid(cfg))
        assert np.array_equal(phi1.values, phi0.values)
        assert np.array_equal(v1.x, v0.x)
        assert np.array_equal(v1.y, v0.y)


class TestCli:
    def test_simulate_writes_diagnostics(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "diagnostics.csv").exists()
        assert "mass drift" in capsys.readouterr().out

    def test_simulate_equilibrium_constant_diagnostics(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SMALL.replace("bubble", "equilibrium").replace("init.swirl = 0.5", "init.swirl = 0.0"),
        )
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = (tmp_path / "out" / "diagnostics.csv").read_text().strip().splitlines()
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        # all diagnostic columns constant along the run (phi == 1 is a fixed
        # point to roundoff, so energies are zero to squared roundoff)
        drift = np.abs(rows[:, 2:] - rows[0, 2:]).max(axis=0)
        assert drift.max() < 1e-12

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "physics.nu_bar = 0.01\nphysics.nu_amp = 0.05\n")
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "A1 positivity violated" in capsys.readouterr().err

    def test_non_finite_physics_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL + "physics.nu_bar = nan\n")
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "nu_bar" in capsys.readouterr().err

    def test_non_finite_time_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL.replace("time.T = 0.004", "time.T = nan"))
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "time.T must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key", ["cost.alpha1", "cost.alpha2", "cost.alpha3", "cost.target_amplitude",
                "bounds.u_min", "bounds.u_max", "init.radius", "init.width", "init.swirl"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, key, value):
        text = "\n".join(ln for ln in SMALL.splitlines() if not ln.startswith(key))
        cfg = write_cfg(tmp_path, text + f"\n{key} = {value}\n")
        rc = main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, name",
        [("optimizer.max_iter = -1", "optimizer.max_iter"),
         ("optimizer.backtrack = -1", "optimizer.backtrack"),
         ("optimizer.tol = nan", "optimizer.tol"),
         ("optimizer.tol = -0.5", "optimizer.tol"),
         ("optimizer.armijo_c1 = 1.5", "optimizer.armijo_c1")],
    )
    def test_bad_optimizer_option_exit_2(self, tmp_path, capsys, line, name):
        cfg = write_cfg(tmp_path, SMALL + line + "\n")
        rc = main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert name in capsys.readouterr().err

    def test_line_search_failure_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            SMALL + "optimizer.backtrack = 0\noptimizer.tol = 1e-12\noptimizer.armijo_c1 = 0.999\n",
        )
        rc = main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        out = capsys.readouterr().out
        assert re.search(
            r"line search failed after 0 halvings at iterate \d+: J=\S+, \|g\|=\S+, "
            r"last step=1\.000e\+07", out
        ), out

    @pytest.mark.parametrize("key", ["init.phi_path", "init.v_path"])
    def test_garbage_snapshot_exit_2(self, tmp_path, capsys, key):
        path = tmp_path / "garbage.snap"
        path.write_text("garbage\n")
        preset = "snapshot" if key == "init.phi_path" else "bubble"
        cfg = write_cfg(tmp_path, SMALL.replace("init.preset = bubble", f"init.preset = {preset}")
                        + f"{key} = {path}\n")
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err and str(path) in err

    @pytest.mark.parametrize("command", ["simulate", "optimize"])
    @pytest.mark.parametrize(
        "key, value",
        [("init.phi_path", np.nan), ("init.phi_path", np.inf), ("init.phi_path", 1e200),
         ("init.v_path", np.nan), ("init.v_path", 1e200)],
    )
    def test_bad_snapshot_values_exit_2(self, tmp_path, capsys, command, key, value):
        # a field the solver could only report as a blow-up is a bad input
        from nsch.snapshots import write_face, write_scalar

        cfg0 = RunConfig({"grid.nx": 12, "grid.ny": 12, "grid.lx": 8.0, "grid.ly": 8.0})
        v0, phi0 = build_initial(cfg0, build_grid(cfg0))
        path = tmp_path / "bad.snap"
        if key == "init.phi_path":
            phi0.values[3, 5] = value
            write_scalar(path, phi0, "phi")
        else:
            v0.y[4, 6] = value
            write_face(path, v0, "v")
        preset = "snapshot" if key == "init.phi_path" else "bubble"
        cfg = write_cfg(tmp_path, SMALL.replace("init.preset = bubble", f"init.preset = {preset}")
                        + f"{key} = {path}\n")
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "optimize"])
    @pytest.mark.parametrize("swirl", ["1e200", "1e308", "-1e308"])
    def test_huge_swirl_exit_2(self, tmp_path, capsys, command, swirl):
        # refused before the flow is formed: 1e308 would overflow there (tier-1
        # turns the RuntimeWarning into an error), 1e200 in the first step
        cfg = write_cfg(tmp_path, SMALL.replace("init.swirl = 0.5", f"init.swirl = {swirl}"))
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "init.swirl" in err and f"blow-up limit {PHI_BLOWUP_LIMIT:g}" in err

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_swirl_limit_is_the_blow_up_limit(self, factor):
        from nsch.config import swirl_velocity

        cfg = RunConfig({"grid.nx": 12, "grid.ny": 12, "grid.lx": 8.0, "grid.ly": 8.0})
        grid = build_grid(cfg)
        unit = swirl_velocity(grid, 1.0)
        swirl = factor * PHI_BLOWUP_LIMIT / max(np.abs(unit.x).max(), np.abs(unit.y).max())
        cfg = RunConfig({**cfg.values, "init.swirl": swirl})
        if factor > 1:
            with pytest.raises(ConfigError, match="init.swirl"):
                build_initial(cfg, grid)
            return
        v0, _ = build_initial(cfg, grid)  # the plain flow, whose peak passes simulate's check
        ref = swirl_velocity(grid, swirl)
        assert np.array_equal(v0.x, ref.x) and np.array_equal(v0.y, ref.y)
        assert max(np.abs(v0.x).max(), np.abs(v0.y).max()) <= PHI_BLOWUP_LIMIT

    @pytest.mark.parametrize("command", [["optimize"], ["verify", "duality"], ["verify", "gradient"]])
    @pytest.mark.parametrize("weight", ["cost.alpha2 = 1e7", "cost.alpha1 = 1e10"])
    def test_large_weight_is_no_adjoint_blow_up(self, tmp_path, command, weight):
        # phia scales with the weights and passes the phase field's blow-up
        # limit here, but stays finite
        cfg = write_cfg(tmp_path, STRIPE_TARGET + weight + "\n")
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_large_weight_takes_a_step(self, tmp_path, capsys):
        # ||g_0|| grows with the weight while the stationarity residual is
        # capped by the box, so the stop compares the residual with its own
        # first value: the run moves before it converges
        cfg = write_cfg(tmp_path, STRIPE_TARGET + "cost.alpha2 = 1e7\n")
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = capsys.readouterr().out
        assert int(re.search(r"converged after (\d+) accepted steps", summary).group(1)) >= 1

    def test_blown_trial_is_a_rejected_trial(self, tmp_path, capsys):
        # in a box of +-1e10 the first trial step 1/alpha3 = 1e7 blows up
        # the forward solve: that trial is rejected, counted as a solve and
        # recorded with J = inf, and the halved steps go on
        cfg = write_cfg(tmp_path, STRIPE_TARGET + "cost.alpha2 = 1e7\n"
                        "bounds.u_min = -1e10\nbounds.u_max = 1e10\n")
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert int(re.search(r"after (\d+) accepted steps", summary).group(1)) >= 1
        rows = (out / "optim_report.csv").read_text().splitlines()[1:]
        assert rows[1].startswith("1,inf,inf,inf,inf,") and rows[1].endswith(",0")
        run = parse_config(cfg)
        _, rep = optimize(build_problem(run), None, build_optimizer_options(run))
        assert rep.n_simulations == len(rep.rows) == len(rows)

    def test_initial_solve_blow_up_exit_1(self, tmp_path, capsys):
        # only a line-search trial may blow up: a blow-up of the first
        # solve, at u = 0, stops the run and names its step and field
        cfg = write_cfg(tmp_path, SMALL.replace("init.swirl = 0.5", "init.swirl = 5e5"))
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "blow-up detected at step 1 in v.x" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["optimize"], ["verify", "duality"]])
    @pytest.mark.parametrize("key, value", [("cost.alpha1", "1e308"), ("cost.alpha2", "1e308"),
                                            ("cost.alpha1", "1e300"), ("cost.alpha2", "1e300")])
    def test_overflowing_weight_exit_2(self, tmp_path, capsys, command, key, value):
        # 1e308 overflows the adjoint data, 1e300 the square of the gradient
        cfg = write_cfg(tmp_path, STRIPE_TARGET + f"{key} = {value}\n")
        rc = main([*command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{key} = {float(value):g} is too large" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, values, name",
        [("optimize", {"cost.target_seed": "-1"}, "cost.target_seed"),
         ("simulate", {"init.radius": "-2"}, "init.radius"),
         ("simulate", {"init.preset": "stripe", "init.width": "-3"}, "init.width"),
         ("optimize", {"cost.target": "stripe", "init.width": "-3"}, "init.width"),
         ("simulate", {"grid.lx": "1e-300"}, "grid: cell size lx/nx"),
         # NSCH_THREADS, not the config, sets the worker count
         ("simulate", {"run.workers": "1"}, "unknown configuration key 'run.workers'"),
         ("optimize", {"bounds.u_min": "2"}, "admissible set is empty"),
         ("simulate", {"output.snapshot_stride": "-1"}, "output.snapshot_stride must be nonnegative"),
         ("optimize", {"cost.alpha3": "5e-324"}, "cost.alpha3"),
         ("simulate", {"time.T": "0"}, "time.T = 0.0 must cover at least one time step"),
         ("optimize", {"time.T": "-0.1"}, "time.T = -0.1 must cover at least one time step"),
         # a cell whose h**2 overflows
         *((command, {"grid.lx": "1e300"}, "grid: cell size lx/nx = 8.33e+298 is too large")
           for command in ("simulate", "optimize", "verify all")),
         *((command, {"grid.lx": "1e160", "grid.ly": "1e160"},
            "grid: cell size lx/nx = 8.33e+158 is too large")
           for command in ("simulate", "optimize", "verify all")),
         ("simulate", {"grid.ly": "1e300"}, "grid: cell size ly/ny = 8.33e+298 is too large"),
         # a domain whose area or (edge/pi)**2 overflows, on cells that do not
         *(("simulate", {"grid.lx": "5e154", "grid.ly": "5e154", "init.preset": preset},
            "grid: domain edge lx = 5e+154 is too large")
           for preset in ("bubble", "stripe", "equilibrium")),
         ("simulate", {"grid.lx": "1e155", "grid.ly": "1", "init.preset": "stripe"},
          "grid: domain edge lx = 1e+155 is too large"),
         ("simulate", {"grid.lx": "2e154", "grid.ly": "2e154", "init.preset": "equilibrium"},
          "grid: domain edge lx = 2e+154 is too large")],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, command, values, name):
        text = "\n".join(ln for ln in SMALL.splitlines() if ln.split(" =")[0] not in values)
        cfg = write_cfg(tmp_path, text + "".join(f"\n{k} = {v}" for k, v in values.items()))
        rc = main([*command.split(), "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["bubble", "stripe", "equilibrium"])
    def test_largest_domain_runs(self, tmp_path, preset):
        # just inside the edge limit every preset runs clean (tier-1 turns an
        # inf/NaN RuntimeWarning into an error)
        text = SMALL.replace("init.preset = bubble", f"init.preset = {preset}")
        for key in ("grid.lx", "grid.ly"):
            text = text.replace(f"{key} = 8.0", f"{key} = {MAX_DOMAIN_EDGE:.17g}")
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize(
        "command, name",
        [("simulate", "diagnostics.csv"), ("simulate", "phi_000002.nschf"),
         ("simulate", "v_000000.nschv"), ("optimize", "optim_report.csv"),
         ("optimize", "u_000002.nschv")],
    )
    def test_unwritable_output_file_exit_2(self, tmp_path, capsys, command, name):
        # an output file name taken by a directory
        cfg = write_cfg(tmp_path, SMALL + "output.snapshot_stride = 2\noptimizer.max_iter = 2\n")
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        rc = main([command, "--config", cfg, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "output.dir" in err and str(out / name) in err

    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8", "out_is_a_file"])
    def test_bad_path_exit_2(self, tmp_path, capsys, case):
        cfg, out = write_cfg(tmp_path, SMALL), str(tmp_path / "out")
        if case == "missing":
            cfg = str(tmp_path / "nonexistent.cfg")
        elif case == "directory":
            cfg = str(tmp_path)
        elif case == "not_utf8":
            (tmp_path / "run.cfg").write_bytes(SMALL.encode() + b"# \xff\n")
        else:
            out = cfg
        rc = main(["simulate", "--config", cfg, "--out", out])
        assert rc == 2
        assert ("output.dir" if case == "out_is_a_file" else cfg) in capsys.readouterr().err

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL)
        rc = main(["verify", "frechet", "--config", cfg, "--seed", "-1"])
        assert rc == 2
        assert "run.seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "optimize"])
    def test_seed_flag_rejected_outside_verify(self, tmp_path, capsys, command):
        # only the verification directions read run.seed; the optimize
        # target is seeded by cost.target_seed
        cfg = write_cfg(tmp_path, SMALL)
        with pytest.raises(SystemExit) as info:
            main([command, "--config", cfg, "--seed", "3", "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_degenerate_snapshot_grid_exit_2(self, tmp_path, capsys):
        path = tmp_path / "tiny.nschf"
        path.write_bytes(b"NSCHF 1 phi 12 12 1e-300 8.0 0.0\n" + bytes(8 * 144))
        cfg = write_cfg(tmp_path, SMALL.replace("init.preset = bubble", "init.preset = snapshot")
                        + f"init.phi_path = {path}\n")
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "init.phi_path" in err and "lx/nx" in err

    def test_bad_thread_count_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NSCH_THREADS", "abc")
        cfg = write_cfg(tmp_path, SMALL)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "NSCH_THREADS" in capsys.readouterr().err

    def test_bad_thread_count_does_not_break_import(self):
        env = dict(os.environ, NSCH_THREADS="abc")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", "import nsch; print(nsch.grid.fft_workers())"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "1"

    def test_all_zero_weights_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            SMALL + "cost.alpha1 = 0\ncost.alpha2 = 0\ncost.alpha3 = 0\n",
        )
        rc = main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "A6" in capsys.readouterr().err

    def test_optimize_nonconstant_mobility_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL + "physics.mobility_amp = 0.5\n")
        rc = main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "constant unit mobility" in capsys.readouterr().err

    def test_optimize_writes_monotone_report(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SMALL + "cost.alpha3 = 1e-6\noptimizer.max_iter = 3\noptimizer.tol = 1e-4\n",
        )
        rc = main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = (tmp_path / "out" / "optim_report.csv").read_text().strip().splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        accepted_j = [float(r[1]) for r in rows if r[8] == "1"]
        assert all(b <= a for a, b in zip(accepted_j, accepted_j[1:]))

    @pytest.mark.parametrize("alpha3", ["1e-6", "0"])
    def test_optimize_prints_the_certificate(self, tmp_path, capsys, alpha3):
        # the residual of u = P(-va/alpha3) stands next to the stop reason;
        # with alpha3 = 0 there is no such condition and nothing is printed
        cfg = write_cfg(tmp_path, STRIPE_TARGET + f"cost.alpha3 = {alpha3}\noptimizer.max_iter = 3\n")
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = capsys.readouterr().out
        parsed = parse_config(cfg)
        _, rep = optimize(build_problem(parsed), None, build_optimizer_options(parsed))
        label = "optimality certificate ||u - P(-va/alpha3)||_Q"
        if alpha3 == "0":
            assert rep.certificate is None and label not in summary
        else:
            assert f"accepted steps, {label} = {rep.certificate:.3e}, J " in summary
        assert "certificate" not in (tmp_path / "out" / "optim_report.csv").read_text()

    def test_verify_mass_pass_exit_0(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL)
        rc = main(["verify", "mass", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "[PASS] mass conservation" in capsys.readouterr().out

    def test_verify_seed_flag(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL)
        rc = main(
            ["verify", "mass", "--config", cfg, "--seed", "7",
             "--out", str(tmp_path / "out")]
        )
        assert rc == 0

    def test_verify_choices_are_the_check_table(self):
        parser = build_parser()
        for which in (*CHECKS, "all"):
            assert parser.parse_args(["verify", which, "--config", "c"]).which == which
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "bogus", "--config", "c"])
        with pytest.raises(ValueError, match="unknown check 'bogus'"):
            verify(None, "bogus")

    @pytest.mark.parametrize("which, builds", [("all", 2), ("mass", 1), ("duality", 2)])
    def test_verify_builds_the_contrast_problem_once(self, tmp_path, monkeypatch, which, builds):
        import nsch.config as cfgmod

        built, real = [], cfgmod.build_problem
        monkeypatch.setattr(cfgmod, "build_problem", lambda cfg: built.append(cfg) or real(cfg))
        main(["verify", which, "--config", write_cfg(tmp_path, SMALL)])
        assert [cfg["cost.target"] for cfg in built] == ["stripe"] * builds
        assert [cfg["grid.nx"] for cfg in built] == [12, 24][:builds]

    def test_simulate_on_tiny_cells(self, tmp_path, capsys):
        # the sixth-order phase symbol spans ~14 decades here; its constant
        # mode must not be taken for a singular one
        text = "grid.nx = 8\ngrid.ny = 8\ngrid.lx = 0.03\ngrid.ly = 0.03\ntime.T = 0.004\n"
        rc = main(["simulate", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "out")])
        assert rc == 0
        drift = re.search(r"mass drift (\S+),", capsys.readouterr().out)
        assert float(drift.group(1)) <= 1e-12

    def test_reproducible_diagnostics(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL)
        rc1 = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o1")])
        rc2 = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o2")])
        assert rc1 == rc2 == 0
        d1 = (tmp_path / "o1" / "diagnostics.csv").read_bytes()
        d2 = (tmp_path / "o2" / "diagnostics.csv").read_bytes()
        assert d1 == d2

    def test_snapshot_stride_files(self, tmp_path):
        # 5 steps, stride 2: nodes 0, 2, 4 of the run and steps 0, 2, 4 of the control
        text = SMALL.replace("time.T = 0.004", "time.T = 0.005") + (
            "output.snapshot_stride = 2\ncost.alpha3 = 1e-6\noptimizer.max_iter = 2\n")
        cfg, out = write_cfg(tmp_path, text), tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        expected = {f"{kind}_{n:06d}.{ext}" for n in (0, 2, 4)
                    for kind, ext in (("phi", "nschf"), ("v", "nschv"), ("u", "nschv"))}
        written = {p.name for p in out.iterdir()} - {"diagnostics.csv", "optim_report.csv"}
        assert written == expected
        run = parse_config(cfg)
        problem = build_problem(run)
        dt, traj = problem.time.dt, problem.base
        u_opt, _ = optimize(problem, None, build_optimizer_options(run))
        for n in (0, 2, 4):
            phi, _, t_phi = read_scalar(out / f"phi_{n:06d}.nschf")
            v, _, t_v = read_face(out / f"v_{n:06d}.nschv")
            u, name, t_u = read_face(out / f"u_{n:06d}.nschv")
            assert t_phi == t_v == t_u == n * dt
            assert name == "u"
            assert np.array_equal(phi.values, traj[n].phi.values)
            assert np.array_equal(v.x, traj[n].v.x) and np.array_equal(v.y, traj[n].v.y)
            assert np.array_equal(u.x, u_opt[n].x) and np.array_equal(u.y, u_opt[n].y)


class TestConfigProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        key=st.sampled_from(sorted(_DEFAULTS)),
        text=st.one_of(
            st.text(max_size=12),
            st.floats().map(repr),
            st.integers(-10**6, 10**6).map(str),
            st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999", "-1e999", " 1.5 ", "5e-324"]),
        ),
    )
    def test_values_finite_or_config_error(self, key, text):
        """A configuration either holds only finite numbers (after the physics
        and time builders ran) or is refused with a ConfigError."""
        try:
            cfg = RunConfig({key: text})
            build_params(cfg)
            build_time(cfg)
        except ConfigError:
            return
        for value in cfg.values.values():
            if isinstance(value, float):
                assert np.isfinite(value)

    @settings(max_examples=300, deadline=None)
    @given(
        key=st.sampled_from(["init.phi_path", "init.v_path"]),
        header=st.one_of(
            st.binary(max_size=48),
            st.tuples(
                st.sampled_from(["NSCHF", "NSCHV"]), st.sampled_from(["1", "2"]),
                st.one_of(st.just(4), st.integers(-1, 10**7)),
                st.one_of(st.just(4), st.integers(-1, 10**7)),
                st.one_of(st.just(8.0), st.floats()),
            ).map(lambda t: "{} {} f {} {} {!r} 8.0 0.0".format(*t).encode()),
        ),
        # 128 and 320 bytes are the scalar and face payloads on 4x4 cells
        payload=st.one_of(
            st.binary(max_size=512),
            st.sampled_from([128, 320]).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
        ),
    )
    @example(key="init.phi_path", header=b"NSCHF 1 phi 1000000 1000000 1.0 1.0 0.0", payload=b"")
    @example(key="init.v_path", header=b"NSCHV 1 v 1000000 1000000 1.0 1.0 0.0", payload=b"")
    @example(key="init.phi_path", header=b"NSCHF 1 phi 4 4 8.0 8.0 0.0", payload=bytes(128))
    @example(key="init.v_path", header=b"NSCHV 1 v 4 4 8.0 8.0 0.0", payload=bytes(320))
    def test_snapshot_bytes_config_error_or_field(self, tmp_path_factory, key, header, payload):
        """Any snapshot file is refused with a ConfigError, before a payload
        larger than the file is read, or gives a finite field on the configured
        grid."""
        grid = build_grid(RunConfig({"grid.nx": 4, "grid.ny": 4, "grid.lx": 8.0, "grid.ly": 8.0}))
        path = tmp_path_factory.getbasetemp() / "fuzz.snapshot"
        path.write_bytes(header + b"\n" + payload)
        reader = read_scalar if key == "init.phi_path" else read_face
        try:
            f = _read_snapshot(reader, key, str(path), grid)
        except ConfigError as exc:
            assert key in str(exc)
            return
        assert f.grid == grid
        if key == "init.phi_path":
            assert f.values.shape == (4, 4)
            # a field the first step would report as blown up is refused
            assert np.isfinite(f.values).all() and np.abs(f.values).max() <= PHI_BLOWUP_LIMIT
        else:
            assert (f.x.shape, f.y.shape) == ((5, 4), (4, 5))
            assert np.isfinite(f.x).all() and np.isfinite(f.y).all()


def cached_duality_gap(problem, seed) -> dict:
    """Both sides of the duality pairing, each summed in ascending node order
    over the problem's cached va and psi series."""
    time, cost, base = problem.time, problem.cost, problem.base
    adj, (h, lin), dt = problem.base_adjoint, problem.sensitivity(seed), time.dt
    lhs = sum(dt * face_inner(h[n], adj[n]) for n in range(time.n_steps))
    rhs = cost.alpha2 * scalar_inner(base.final.phi - cost.phi_omega, lin[-1])
    for k, w in enumerate(trapezoid_weights(time.n_steps)[1:], start=1):
        rhs += cost.alpha1 * w * dt * scalar_inner(base[k].phi - cost.phi_q[k], lin[k])
    return {"lhs": lhs, "rhs": rhs, "mismatch": abs(lhs - rhs) / max(abs(lhs) + abs(rhs), 1e-300)}


def count_solves(monkeypatch) -> dict:
    """Count the forward, adjoint and sensitivity solves, in every nsch
    module that holds a binding of the solver, and the forward trajectories
    (``members``: a batched ``simulate`` solves one per batch member)."""
    import nsch.adjoint
    import nsch.linearized
    import nsch.state

    counts = {"members": 0}
    for owner, name in ((nsch.state, "simulate"), (nsch.adjoint, "solve_adjoint"),
                        (nsch.linearized, "solve_linearized")):
        original = getattr(owner, name)
        counts[name] = 0

        def counted(*args, _fn=original, _name=name, **kwargs):
            counts[_name] += 1
            out = _fn(*args, **kwargs)
            if _name == "simulate":
                counts["members"] += int(np.prod(out.final.phi.values.shape[:-2]))
            return out

        for mod_name, module in list(sys.modules.items()):
            if mod_name == "nsch" or mod_name.startswith("nsch."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    return counts


class TestSharedBase:
    # (simulate calls, adjoint solves, sensitivity solves, forward trajectories):
    # the Frechet and gradient checks each batch their perturbed solves
    @pytest.mark.parametrize(
        "which, solves",
        [("all", (5, 2, 2, 13)), ("mass", (1, 0, 0, 1)), ("energy", (2, 0, 0, 2)),
         ("frechet", (2, 0, 1, 5)), ("duality", (2, 2, 2, 2)), ("gradient", (2, 1, 0, 7))],
    )
    def test_solve_counts(self, tmp_path, monkeypatch, which, solves):
        counts = count_solves(monkeypatch)
        assert main(["verify", which, "--config", write_cfg(tmp_path, SMALL)]) == 0
        got = tuple(counts[k] for k in ("simulate", "solve_adjoint", "solve_linearized", "members"))
        assert got == solves

    def test_shared_problem_gives_the_fresh_values(self, tmp_path):
        cfg = RunConfig({**parse_config(write_cfg(tmp_path, SMALL)).values, "cost.target": "stripe"})
        fine = refine_config(cfg)

        def run(problem, which):
            return verify(problem, which, seed=3, refined_problem=build_problem(fine)).values

        fresh = {which: run(build_problem(cfg), which) for which in CHECKS}
        for order in (tuple(CHECKS), tuple(reversed(CHECKS))):
            shared = build_problem(cfg)
            assert {which: run(shared, which) for which in order} == fresh

    def test_refined_duality_keeps_no_series(self, tmp_path):
        cfg = RunConfig({**parse_config(write_cfg(tmp_path, SMALL)).values, "cost.target": "stripe"})
        problem, refined = build_problem(cfg), build_problem(refine_config(cfg))
        values = verify_duality(problem, refined, seed=3).values
        # the refined sweeps reduced each va and psi as they formed it
        assert "base_adjoint" not in vars(refined) and not refined._sensitivities
        # the same numbers as the pairing over each problem's cached series
        coarse, fine = cached_duality_gap(problem, 3), cached_duality_gap(refined, 3)
        assert {k: values[k] for k in ("lhs", "rhs", "mismatch")} == coarse
        assert values["mismatch_refined"] == fine["mismatch"]
        assert duality_gap(refined, 3, shared=False) == duality_gap(refined, 3) == fine

    def test_problem_is_frozen(self, tmp_path):
        problem = build_problem(parse_config(write_cfg(tmp_path, SMALL)))
        with pytest.raises(AttributeError):
            problem.cost = None
