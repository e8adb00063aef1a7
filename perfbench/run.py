"""Benchmark entry point.

    python3 perfbench/run.py --workload {oracle,membership,session}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is taken from `src/` of that
checkout (it is pure Python: there is nothing to build).  The workload runs
as a closed loop with one client in a worker process; set-up is measured in
further fresh processes, one after another, because a single import of the
program varies too much to be a steady figure on its own.  The last line
of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics`.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("oracle", "membership", "session")
SETUP_SAMPLES = 5  # fresh set-up processes, besides the worker's own set-up
TIMEOUT_S = 150

LAYER_UNITS = {"calls": "count", "self_s": "s"}
RATIO_METRICS = ("finoracle.radicals_per_query", "finitary.probes_per_verdict", "trace.overhead")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker(args, extra):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", OUT] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"worker for {args.workload} exceeded {TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        fail(f"worker for {args.workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "flagforge", "__init__.py")):
        fail(f"no program source under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT, exist_ok=True)

    setups = [worker(args, ["--setup-only"]) for _ in range(SETUP_SAMPLES)]
    main_run = worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    setups.append(main_run)
    import_s = statistics.median(s["import_s"] for s in setups)
    inputs_s = statistics.median(s["inputs_s"] for s in setups)
    setup_s = statistics.median(s["import_s"] + s["inputs_s"] for s in setups)

    for problem in main_run["problems"]:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    for label, error in main_run["errors"].items():
        print(f"perfbench: {label} raised {error}", file=sys.stderr)

    if args.trace:
        metrics = {}
        for name, value in main_run["trace"].items():
            kind = name.rsplit(".", 1)[1]
            unit = "ratio" if name in RATIO_METRICS else LAYER_UNITS.get(kind, "count")
            metrics[name] = metric(value, unit)
        metrics["setup.import_s"] = metric(import_s, "s")
        metrics["setup.inputs_s"] = metric(inputs_s, "s")
    else:
        lat = sorted(main_run["latencies"])
        if not lat:
            fail("no operation completed")
        metrics = {
            "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
            "latency_p50_ms": metric(1000 * nearest_rank(lat, 0.5), "ms"),
            "latency_p90_ms": metric(1000 * nearest_rank(lat, 0.9), "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(main_run["peak_rss_mb"], "MB"),
        }
        print(f"perfbench: {args.workload} seed {args.seed}: {len(lat)} timed operations "
              f"in {main_run['passes']} passes, {main_run['wall_s']:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": main_run["wrong"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
