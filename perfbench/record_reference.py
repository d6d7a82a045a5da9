"""Record the correctness references of the benchmark into ``reference.json``.

Run from a checkout root, on the commit whose outputs are the reference::

    python3 perfbench/record_reference.py [--smoke] [--workload control-64] [--seeds 0 1]

For every input seed it runs the workload body once, requires that the
run passes every check that does not need a reference, and stores the
final-phi summary (``forward-256``) or the optimizer's J(stop)/J(0) and
solve counts (``control-64``).  ``verify-48`` needs no reference; it is
run only to confirm that every seed of the pool passes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run  # sets the thread environment before numpy is imported
import workloads


def reference_entry(wl, inputs, result) -> dict | None:
    if isinstance(wl, workloads.Forward):
        return {"phi_summary": workloads.phi_summary(result.final.phi.values)}
    if isinstance(wl, workloads.Control):
        counts = wl.counters(inputs, result)
        return {key.split(".")[1]: counts[key] for key in (
            "control.J_ratio", "control.forward_solves", "control.accepted", "control.rejected")}
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), action="append")
    parser.add_argument("--seeds", type=int, nargs="*", help="input seeds (default: the workload's pool)")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    run.fresh_import(src)
    outdir = os.path.join(run.HERE, "out")
    os.makedirs(outdir, exist_ok=True)

    reference = {}
    if os.path.exists(workloads.REFERENCE_PATH):
        with open(workloads.REFERENCE_PATH) as fh:
            reference = json.load(fh)
    for name in args.workload or sorted(workloads.WORKLOADS):
        for seed in args.seeds or workloads.WORKLOADS[name].pool:
            wl = workloads.WORKLOADS[name](seed, args.smoke, outdir)
            inputs = wl.assemble()
            result = wl.run(inputs)
            entry = reference_entry(wl, inputs, result)
            if entry is not None:
                reference.setdefault(wl.ref_key, {})[str(seed)] = entry
                with open(workloads.REFERENCE_PATH, "w") as fh:
                    json.dump(reference, fh, indent=1, sort_keys=True)
                    fh.write("\n")
            failures = wl.check(inputs, result)
            if failures:
                raise SystemExit(f"{name} seed {seed}: {failures}")
            print(f"{name}{' (smoke)' if args.smoke else ''} seed {seed}: {entry or 'passes'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
