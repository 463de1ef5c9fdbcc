#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

For every workload and end-to-end metric this prints the median of the
runs and the distance between the first and third quartile as a share of
the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from ``BENCHMARK.json``.

Run from the repository root (the command in ``BENCHMARK.json`` is
relative to it)::

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads mux_service --seeds 1-5 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds, trace):
    out = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()

    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    worst = 0.0
    for workload in args.workloads.split(","):
        results = [run(bench["command"], workload, s, args.seconds, args.trace) for s in parse_seeds(args.seeds)]
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"{workload}: {len(results)} runs, {len(bad)} with failed or incorrect ops")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:28s} median {med:14.6g}  spread {spread:7.3f}  bound {bound}")
            if args.verbose:
                print("    " + " ".join(f"{v:.4g}" for v in values))
    if not args.trace:
        print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
