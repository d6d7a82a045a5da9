"""Command-line front end: batch simulation, optimization and verification.

Subcommands
-----------
``nsch simulate --config cfg [--out DIR]``
    Run the forward solver; write ``diagnostics.csv`` and optional
    snapshots.

``nsch optimize --config cfg [--out DIR]``
    Run projected-gradient descent on the configured tracking problem;
    write ``optim_report.csv`` and the final control snapshots.

``nsch verify WHICH --config cfg [--seed N]``
    Run one identity check (mass | energy | frechet | duality | gradient |
    all) and print a pass/fail report.

Exit status: 0 on success, 1 on numerical failure (blow-up, failed
line search, failed identity check), 2 on configuration errors.  The
``NSCH_THREADS`` environment variable sets the FFT worker count (default 1).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import config as cfgmod
from .control import StopReason, optimize
from .errors import BlowUpError, ConfigError, NschError
from .grid import set_fft_workers, workers_from_env
from .snapshots import write_diagnostics_csv, write_face, write_trajectory_snapshots
from .verification import CHECKS, verify


def _load(args, seed: int | None = None) -> cfgmod.RunConfig:
    cfg = cfgmod.parse_config(args.config)
    overrides = {"run.seed": seed, "output.dir": args.out}
    cfg = cfgmod.RunConfig({**cfg.values, **{k: v for k, v in overrides.items() if v is not None}})
    set_fft_workers(workers_from_env())
    return cfg


@contextlib.contextmanager
def _writing(cfg):
    """Writes under ``output.dir``: an OSError (a name taken by a file or a
    directory, a denied permission) is a ConfigError naming ``output.dir``
    and the file."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"output.dir '{cfg['output.dir']}' cannot be written: {exc}") from exc


def _outdir(cfg) -> str:
    with _writing(cfg):
        os.makedirs(cfg["output.dir"], exist_ok=True)
    return cfg["output.dir"]


def cmd_simulate(args) -> int:
    cfg = _load(args)
    outdir = _outdir(cfg)
    grid = cfgmod.build_grid(cfg)
    time = cfgmod.build_time(cfg)
    params = cfgmod.build_params(cfg)
    v0, phi0 = cfgmod.build_initial(cfg, grid)

    from .state import simulate

    traj = simulate(v0, phi0, None, time, params)
    csv_path = os.path.join(outdir, "diagnostics.csv")
    stride = cfg["output.snapshot_stride"]
    with _writing(cfg):
        write_diagnostics_csv(csv_path, traj)
        if stride > 0:
            write_trajectory_snapshots(outdir, traj, stride)
    d = traj.diagnostics
    print(
        f"simulated {time.n_steps} steps on {grid.nx}x{grid.ny}: "
        f"mass drift {abs(d['mass'][-1] - d['mass'][0]):.3e}, "
        f"final energy {d['energy'][-1]:.6e}, wrote {csv_path}"
    )
    return 0


def cmd_optimize(args) -> int:
    cfg = _load(args)
    outdir = _outdir(cfg)
    problem = cfgmod.build_problem(cfg)
    options = cfgmod.build_optimizer_options(cfg)

    u_opt, report = optimize(problem, None, options)
    csv_path = os.path.join(outdir, "optim_report.csv")
    stride = cfg["output.snapshot_stride"]
    with _writing(cfg):
        report.to_csv(csv_path)
        if stride > 0:
            for n in range(0, problem.time.n_steps, stride):
                write_face(
                    os.path.join(outdir, f"u_{n:06d}.nschv"),
                    u_opt[n], "u", n * problem.time.dt,
                )
    accepted = report.accepted_J()
    failed = report.reason is StopReason.LINE_SEARCH_FAILED
    reason = report.reason.value
    if failed:
        trial = dict(zip(report.COLUMNS, report.rows[-1]))  # the last rejected trial
        reason += (
            f" after {options.backtrack_max} halvings at iterate {trial['iter'] - 1}: "
            f"J={accepted[-1]:.6e}, |g|={trial['grad_norm']:.3e}, last step={trial['step']:.3e}"
        )
    certificate = (
        "" if report.certificate is None
        else f", optimality certificate ||u - P(-va/alpha3)||_Q = {report.certificate:.3e}"
    )
    print(
        f"optimizer stopped: {reason} after {len(accepted) - 1} accepted steps{certificate}, "
        f"J {accepted[0]:.6e} -> {accepted[-1]:.6e}, wrote {csv_path}"
    )
    return 1 if failed else 0


def cmd_verify(args) -> int:
    cfg = _load(args, args.seed)
    if cfg["cost.target"] == "tracking":
        # identity checks need a non-degenerate misfit; self-generated
        # tracking targets make both sides of the pairing nearly zero.  Mass
        # and energy read only v0, phi0, time and params, which no target changes.
        cfg = cfgmod.RunConfig({**cfg.values, "cost.target": "stripe"})
    checks = tuple(CHECKS) if args.which == "all" else (args.which,)
    problem = cfgmod.build_problem(cfg)
    all_passed = True
    for which in checks:
        # the refined problem and its cached solves live for this check only
        refined = cfgmod.build_problem(cfgmod.refine_config(cfg)) if which == "duality" else None
        report = verify(problem, which, seed=cfg["run.seed"], refined_problem=refined)
        print(report.summary())
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsch",
        description="membrane-fluid solver suite: simulate, optimize, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("optimize", cmd_optimize)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
    pv = sub.add_parser("verify")
    pv.add_argument("which", choices=(*CHECKS, "all"))
    pv.add_argument("--config", required=True)
    pv.add_argument("--out", default=None)
    pv.add_argument("--seed", type=int, default=None)
    pv.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except NschError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
