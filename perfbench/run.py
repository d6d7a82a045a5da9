"""nsch benchmark: three workloads timed end to end, or traced per module.

Run from the root of a source checkout (the package is imported from
``./src``, never from an installed copy)::

    python3 perfbench/run.py --workload forward-256 --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``forward-256`` -- ``nsch.simulate``, 256^2 cells, 100 steps, big arrays;
* ``control-64``  -- ``build_problem`` then ``optimize``, 64^2, 50 steps;
* ``verify-48``   -- ``nsch verify all`` on a generated 48^2 config.

The seed chooses the inputs: the initial flow of ``forward-256``,
``cost.target_seed`` of ``control-64`` and ``--seed`` of ``verify-48``.
The input seed is ``pool[seed % len(pool)]`` with the workload's pool of
seeds (0-15; for ``control-64`` the seven of them with equal optimizer
work), each with a reference in ``reference.json`` recorded by
``record_reference.py``.  The default seed is 1; seed 5 is held out for
confirming a claimed gain.

With ``--trace 0`` a run repeats set-up (re-import of ``nsch``, input
assembly and first-call cache fill) plus body while at least half of the
next one fits in ``--seconds``; ``setup_s`` and ``wall_s`` are the
medians, and the first body is an untimed warm-up.  ``peak_mem_mb`` is
how far that warm-up raises the process's peak resident set.

With ``--trace 1`` it measures the tracemalloc peak of one untimed body,
repeats the untraced body for half of the rest of ``--seconds``, then
wraps the public functions of every ``nsch`` module and repeats assembly
plus body for the other half, reporting per-function calls, total and
self time (medians over the traced repetitions), the program's own
counts, and the tracing overhead.  Every body result passes the
workload's correctness gate or the run counts as failed; a raised
exception is a failed run and is never re-timed.  A traced run also fails
when the traced counts disagree with the program's own.  ``--smoke``
shrinks every workload to a tiny size for a quick check of the harness
itself (``python3 -m pytest -q perfbench``).

The last line of standard output is the result as one JSON object; the
line before it records the environment.  The environment, the result and
the spans of a traced run are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))

# One FFT worker and no BLAS threads: set before numpy is first imported.
for _var in ("NSCH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402


class SetupError(RuntimeError):
    pass


def fresh_import(src: str):
    """Import ``nsch`` and its entry modules anew from ``src``."""
    for name in [n for n in sys.modules if n == "nsch" or n.startswith("nsch.")]:
        del sys.modules[name]
    nsch = importlib.import_module("nsch")
    for name in ("config", "cli", "snapshots"):
        importlib.import_module(f"nsch.{name}")
    if not os.path.abspath(nsch.__file__).startswith(src + os.sep):
        raise SetupError(f"imported nsch from {nsch.__file__}, not from {src}")
    return nsch


def set_up(wl, src: str):
    """One full set-up: import, input assembly, cache fill; its time and inputs."""
    t0 = time.perf_counter()
    fresh_import(src)
    inputs = wl.assemble()
    wl.warm(inputs)
    return time.perf_counter() - t0, inputs


def attempt(wl, inputs, log: list):
    """Run the body once; return (seconds, result or None, failures)."""
    t0 = time.perf_counter()
    try:
        result = wl.run(inputs)
    except Exception as exc:  # a failed run is counted, never re-timed
        elapsed = time.perf_counter() - t0
        log.append(traceback.format_exc())
        return elapsed, None, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    return elapsed, result, wl.check(inputs, result)


def git_commit(root: str) -> str:
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.exists(head_path):
        return "unknown (not a git checkout)"
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def src_lines(src: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment(root: str, src: str, seed: int, input_seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "fft_workers": sys.modules["nsch.grid"].fft_workers(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "seed": seed,
        "input_seed": input_seed,
        "src_lines": src_lines(src),
    }


def repeat(step, deadline: float) -> list:
    """Call ``step`` until half of the next call no longer fits before ``deadline``.

    At least one call runs, and the median call so far predicts the next,
    so a run ends on average at its deadline.  Returns what the calls
    returned.
    """
    out, laps = [], []
    while True:
        lap = time.perf_counter()
        out.append(step())
        laps.append(time.perf_counter() - lap)
        if time.perf_counter() + statistics.median(laps) / 2 > deadline:
            return out


def resident_mb() -> float:
    """Resident set size of this process now."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_resident_mb() -> float:
    """Largest resident set size this process has had (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tracemalloc_peak(wl, inputs, log: list) -> tuple[float, list[str]]:
    """Peak of the Python-tracked allocations of one untimed body, in MB."""
    tracemalloc.start()
    try:
        _, _, bad = attempt(wl, inputs, log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, bad


def measure(wl, src: str, seconds: float, log: list) -> tuple[dict, int, int]:
    """End-to-end metrics: median set-up and wall time, peak resident growth.

    Every body follows a set-up of its own, so the short set-ups are
    sampled across the whole run like the bodies, not in one burst that
    a moment of contention on the host can slow together.  The first body
    is a warm-up: it is gated and counted but not timed into ``wall_s``.
    It gives the memory figure, how far the peak resident set rises above
    the resident set before it.  This costs nothing, where a tracemalloc
    pass costs another 1.2-2.4 bodies (the traced run reports that peak).
    """
    deadline = time.perf_counter() + seconds
    first_setup, inputs = set_up(wl, src)
    before = resident_mb()
    _, result, warm_bad = attempt(wl, inputs, log)
    peak = peak_resident_mb() - before
    result = None
    log.extend(warm_bad)

    def step():
        setup, inputs = set_up(wl, src)
        elapsed, _, bad = attempt(wl, inputs, log)
        log.extend(bad)
        return setup, elapsed, bool(bad)

    rows = repeat(step, deadline)
    setups = [first_setup] + [setup for setup, _, _ in rows]
    walls = [wall for _, wall, _ in rows]
    log.append(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setups)}")
    log.append(f"wall_s samples: {', '.join(f'{w:.4f}' for w in walls)}")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_mem_mb": (peak, "MB"),
    }
    return metrics, len(rows) + 1, bool(warm_bad) + sum(bad for _, _, bad in rows)


def trajectory_bytes(traj) -> int:
    """Bytes of the distinct arrays a trajectory stores across its states."""
    seen, total = set(), 0

    def add(value):
        nonlocal total
        if hasattr(value, "nbytes") and hasattr(value, "dtype"):
            if id(value) not in seen:
                seen.add(id(value))
                total += value.nbytes
        elif hasattr(value, "__dict__"):
            for inner in vars(value).values():
                add(inner)

    for state in traj.states:
        for value in vars(state).values():
            add(value)
    return total


def cross_check(tr: tracing.Tracer, lo: int, hi: int, stats: dict, counts: dict) -> list[str]:
    """Traced call counts against the counts the program reports itself."""
    spans, results = tr.spans, tr.results
    bad = []
    steps = sum(results[i][0] for i in range(lo, hi) if spans[i][0] == "state.simulate")
    ns, ch = stats["state.ns_step"][0], stats["state.ch_step"][0]
    if not ns == ch == steps:
        bad.append(f"ns_step calls {ns}, ch_step calls {ch}, simulated steps {steps}")
    adj_steps = sum(results[i] for i in range(lo, hi) if spans[i][0] == "adjoint.solve_adjoint")
    if stats["adjoint.adjoint_step"][0] != adj_steps:
        bad.append(f"adjoint_step calls {stats['adjoint.adjoint_step'][0]}, adjoint nodes {adj_steps}")
    opt = [i for i in range(lo, hi) if spans[i][0] == "control.optimize"]
    if "control.forward_solves" in counts:
        if len(opt) != 1:
            return bad + [f"{len(opt)} optimize spans, expected 1"]
        fwd = len(tracing.descendants(spans, opt[0], "state.simulate"))
        if fwd != counts["control.forward_solves"]:
            bad.append(f"traced forward solves {fwd} != n_simulations {counts['control.forward_solves']}")
        n_adj = counts["control.adjoint_solves"]
        adj = len(tracing.descendants(spans, opt[0], "adjoint.solve_adjoint"))
        adj_step = len(tracing.descendants(spans, opt[0], "adjoint.adjoint_step"))
        if adj != n_adj or adj_step != n_adj * counts["n_steps"]:
            bad.append(
                f"traced adjoint solves {adj} / steps {adj_step} != "
                f"{n_adj} solves x {counts['n_steps']} steps from the report"
            )
    elif opt:
        bad.append("optimize ran without reported counts")
    return bad


def trace(wl, src: str, seconds: float, log: list, spans_path: str) -> tuple[dict, int, int]:
    """Per-layer metrics from traced repetitions of assembly plus body.

    The tracemalloc pass and both halves share the budget of ``seconds``:
    what the pass leaves goes half to untraced and half to traced
    repetitions (at least one of each); the difference of their median
    times is the tracing overhead.
    """
    _, inputs = set_up(wl, src)
    deadline = time.perf_counter() + seconds
    traced_peak, peak_bad = tracemalloc_peak(wl, inputs, log)
    log.extend(peak_bad)

    def untraced_step():
        elapsed, _, bad = attempt(wl, inputs, log)
        log.extend(bad)
        return elapsed, bool(bad)

    now = time.perf_counter()
    untraced = repeat(untraced_step, now + (deadline - now) / 2)

    tr = tracing.Tracer()
    observers = {
        "state.simulate": lambda traj: (len(traj) - 1, trajectory_bytes(traj)),
        "adjoint.solve_adjoint": lambda adj: len(adj) - 1,
    }
    missing = tr.install(observers)
    if missing:
        log.append(f"not found, reported as 0 calls: {', '.join(missing)}")
    reps = []

    def traced_step():
        lo = len(tr.spans)
        inputs = wl.assemble()
        elapsed, result, bad = attempt(wl, inputs, log)
        hi = len(tr.spans)
        stats = tracing.aggregate(tr.spans, lo, hi)
        counts = wl.counters(inputs, result) if result is not None else {}
        if not bad:
            bad = cross_check(tr, lo, hi, stats, counts)
        sim_bytes = [tr.results[i][1] for i in range(lo, hi) if tr.spans[i][0] == "state.simulate"]
        counts["state.trajectory_bytes"] = max(sim_bytes, default=0)
        reps.append((stats, counts))
        log.extend(bad)
        return elapsed, bool(bad)

    try:
        traced = repeat(traced_step, deadline)
    finally:
        tr.uninstall()
        write_json(spans_path, {"columns": ["name", "start", "end", "parent"], "spans": tr.spans})

    walls = [wall for wall, _ in traced]
    untraced_walls = [wall for wall, _ in untraced]
    log.append(f"untraced wall_s samples: {', '.join(f'{w:.4f}' for w in untraced_walls)}")
    log.append(f"traced wall_s samples: {', '.join(f'{w:.4f}' for w in walls)}")
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = (statistics.median([s[name][0] for s, _ in reps]), "count")
        metrics[f"{name}.total_s"] = (statistics.median([s[name][1] for s, _ in reps]), "s")
        metrics[f"{name}.self_s"] = (statistics.median([s[name][2] for s, _ in reps]), "s")
    for key, unit in (
        ("control.forward_solves", "count"),
        ("control.adjoint_solves", "count"),
        ("control.accepted", "count"),
        ("control.rejected", "count"),
        ("control.accept_ratio", "ratio"),
        ("control.J_ratio", "ratio"),
        ("state.trajectory_bytes", "bytes"),
    ):
        metrics[key] = (statistics.median([c.get(key, 0) for _, c in reps]), unit)
    metrics["trace.overhead_s"] = (statistics.median(walls) - statistics.median(untraced_walls), "s")
    metrics["body.tracemalloc_peak_mb"] = (traced_peak, "MB")
    attempted = 1 + len(untraced) + len(traced)
    failed = bool(peak_bad) + sum(bad for _, bad in untraced + traced)
    return metrics, attempted, failed


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, to test the harness")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nsch", "__init__.py")):
        print(f"no nsch source tree at {os.path.join(src, 'nsch')}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    input_seed = cls.pool[args.seed % len(cls.pool)]
    wl = cls(input_seed, args.smoke, outdir)
    log: list[str] = []
    stem = f"{wl.name}-seed{args.seed}"
    try:
        if args.trace:
            spans_path = os.path.join(outdir, f"spans-{stem}.json")
            metrics, attempted, failed = trace(wl, src, args.seconds, log, spans_path)
        else:
            metrics, attempted, failed = measure(wl, src, args.seconds, log)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    env = environment(root, src, args.seed, input_seed)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write_json(os.path.join(outdir, f"result-{stem}-trace{args.trace}.json"),
               {"env": env, "log": log, "error_rate": failed / attempted, **result})
    for line in log:
        print(line, file=sys.stderr)
    print(f"{wl.name} seed {args.seed}: {attempted} runs, error_rate {failed / attempted:.3f}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
