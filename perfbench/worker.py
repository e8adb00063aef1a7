"""One workload in one process: set-up, then a closed loop of operations.

Started by run.py, never by hand.  It prints one JSON line with the raw
measurements; run.py turns them into metrics.

With --setup-only it imports the workload's modules, builds its inputs and
reports the two times.  Otherwise it runs the workload's operations one at
a time, in whole passes over the input pool until --seconds have passed, so
every run weighs the inputs alike.  Each operation is timed at the
program's public functions, and its output is checked against the
reference checks afterwards, outside the timed interval.  The latency of an
operation is its mean time over the passes: on a shared machine the speed
of a core swings by up to a factor of two from one second to the next, and
passes spread through the run even those swings out where a single
execution would not.  With --trace 1 it instead runs one pass over the
input pool untraced and one traced, and reports per-layer counts and self
times from the trace.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import tracer as tracing


def run_pass(ops, stats, tracer=None):
    """Run each operation once, check its output, and add its time to the
    operation's total.  Returns the summed latency of the pass."""
    total = 0.0
    times = stats["times"]
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id += 1
        stats["attempted"] += 1
        gc.collect()  # every operation starts from the same collector state
        start = perf_counter()
        try:
            out = op.run()
        except Exception:
            stats["failed"] += 1
            if op.label not in stats["errors"]:
                stats["errors"][op.label] = traceback.format_exc(limit=3).strip().splitlines()[-1]
            continue
        elapsed = perf_counter() - start
        total += elapsed
        problems = op.check(out)
        if op.probe:
            stats["failed"] += bool(problems)
            continue
        times.setdefault(idx, []).append(elapsed)
        if problems:
            stats["problems"].extend(problems[: max(0, 20 - len(stats["problems"]))])
            stats["wrong"] += 1
    return total


def trace_metrics(tracer, ops, base_s, traced_s):
    calls, self_s = tracer.layer_totals()
    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    count = tracer.count
    members = count("pairedspace.Subspace.member")
    radicals = count("finoracle.solvable_radical")
    queries = sum(op.queries for op in ops)
    verdicts = sum(op.verdicts for op in ops)
    out.update({
        "exactnum.eliminations": count(
            "exactnum.rref", "exactnum.kernel", "exactnum.solve",
            "exactnum.row_space_basis", "exactnum.in_row_space"),
        "exactnum.matmuls": count("exactnum.Matrix.__mul__"),
        "finoracle.algebra_builds": count("finoracle.FdLieAlgebra.__init__"),
        "finoracle.brackets": count("finoracle.bracket"),
        "finoracle.coords_of": count("finoracle.MatSpan.coords_of"),
        "finoracle.meataxe_calls": count("finoracle.find_proper_submodule"),
        "finoracle.radicals_per_query": radicals / queries if queries else 0.0,
        "pairedspace.vector_builds": count("pairedspace.Vector.__init__"),
        "pairedspace.member_calls": members,
        "finitary.probes_per_verdict": members / verdicts if verdicts else 0.0,
        "epcore.windows": count("epcore.stabilization_window"),
        "trace.overhead": traced_s / base_s,
    })
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = perf_counter()
    module = importlib.import_module(args.workload)
    imported = perf_counter()
    if args.workload == "session":
        workload = module.build(args.seed, args.out)
    else:
        workload = module.build(args.seed)
    built = perf_counter()
    result = {"import_s": imported - start, "inputs_s": built - imported}
    if args.setup_only:
        print(json.dumps(result))
        return

    gc.collect()
    gc.freeze()  # set-up objects never need collecting again
    stats = {"attempted": 0, "failed": 0, "wrong": 0, "times": {}, "problems": [],
             "errors": {}}
    if args.trace:
        # one pass over the whole input pool, untraced and then traced: a
        # fixed amount of work, so the counts repeat exactly for a seed
        base_s = run_pass(workload.ops, stats)
        tracer = tracing.Tracer()
        tracer.install()
        traced_s = run_pass(workload.ops, stats, tracer)
        result["trace"] = trace_metrics(tracer, workload.ops, base_s, traced_s)
        path = os.path.join(args.out, f"trace-{args.workload}-{args.seed}.spans")
        tracer.write(path)
        result["spans"] = len(tracer.span_name)
    else:
        loop_start = perf_counter()
        passes = 0
        while passes == 0 or perf_counter() - loop_start < args.seconds:
            run_pass(workload.ops, stats)
            passes += 1
        result["passes"] = passes
        result["wall_s"] = perf_counter() - loop_start
    result.update(stats)
    result["latencies"] = [sum(t) / len(t) for t in result.pop("times").values()]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
