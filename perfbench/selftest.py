#!/usr/bin/env python3
"""Self-test of the benchmark's traced runs and seed plumbing.

Asserts, for every workload:

* the deterministic per-layer counts are identical across two traced runs
  with one seed;
* they differ between two seeds;
* every traced op was correct and its trace matched the untraced one;

and that ``wire.decode.calls`` is exactly 0 on ``solo_inproc``, which
does no codec work.

Run from the repository root::

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys

# Counts fixed by the schedules and the algorithm: no clock, no thread
# interleaving and no other tenant can move them.
DETERMINISTIC = [
    "engine.rounds",
    "engine.deliveries",
    "engine.delivered_bytes",
    "schedule.graph_into.calls",
    "alg1.send.calls",
    "alg1.receive.calls",
    "alg1.restore.calls",
    "wire.encode.calls",
    "wire.encode.bytes",
    "wire.decode.calls",
    "wire.decode.bytes",
    "fault.tamper.calls",
    "fault.quarantined",
    "fault.dropped",
    "journal.write.calls",
    "journal.write.bytes",
    "journal.flush.calls",
]

SEED = 1
# The held-out seed (see perfbench/RATIONALE.md), so its plumbing is
# exercised too.
OTHER_SEED = 1001
SECONDS = 2


def traced(command, workload, seed):
    out = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, f"{workload} seed {seed}: {result}"
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    bench = json.load(open("BENCHMARK.json"))
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        a = traced(bench["command"], workload, SEED)
        b = traced(bench["command"], workload, SEED)
        c = traced(bench["command"], workload, OTHER_SEED)
        unequal = [m for m in DETERMINISTIC if a[m] != b[m]]
        if unequal:
            failures.append(f"{workload}: {unequal} differ between two runs of seed {SEED}")
        if all(a[m] == c[m] for m in DETERMINISTIC):
            failures.append(f"{workload}: seeds {SEED} and {OTHER_SEED} give identical counts")
        if workload == "solo_inproc" and a["wire.decode.calls"] != 0:
            failures.append(f"solo_inproc decoded {a['wire.decode.calls']} frames per op")
        print(f"{workload}: " + ", ".join(f"{m}={a[m]:g}" for m in DETERMINISTIC if a[m]))
    for f in failures:
        print("FAIL", f)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
