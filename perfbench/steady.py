#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one commit, compared.

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--workload W ...] [--runs 10]

Every run gets its own seed: set 1 uses seeds 1 to ``runs``, set 2 the
next ``runs``.  For each workload and end-to-end metric it prints each
set's median and quartiles, the interquartile spread as a share of the
median, whether that spread stays within the metric's bound from
``BENCHMARK.json`` (and within a third of it), whether the two sets'
medians differ by at most the bound in either direction, and the
operations attempted and failed in each set.  Runs are made one at a time.  Exits
non-zero when any run fails, is incorrect, or any check does not hold
(the spread of ``setup_s`` is printed but not held to its bound).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
FIRST_SEED = 1


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    argv = list(command) + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
    lines = done.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["exit"] = done.returncode
    result["wall_s"] = time.monotonic() - start
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to check (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    args = parser.parse_args()
    workloads = args.workload or [entry["name"] for entry in spec["workloads"]]
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    ok = True
    record = {}
    for workload in workloads:
        sets = []
        for number in range(SETS):
            results = []
            for run in range(args.runs):
                seed = FIRST_SEED + number * args.runs + run
                result = run_once(spec["command"], workload, seed, spec["run_seconds"])
                results.append(result)
                print("%s set %d seed %d: exit %d, correct %s, %s/%s failed, %.1f s wall"
                      % (workload, number + 1, seed, result["exit"], result.get("correct"),
                         result.get("failed"), result.get("attempted"), result["wall_s"]),
                      flush=True)
                if result["exit"] != 0 or not result.get("correct"):
                    ok = False
            sets.append(results)
        record[workload] = sets
        print("\n== %s: %d sets of %d runs, %d s each" % (workload, SETS, args.runs,
                                                        spec["run_seconds"]))
        shares = []
        for number, results in enumerate(sets):
            attempted = sum(r.get("attempted", 0) for r in results)
            failed = sum(r.get("failed", 0) for r in results)
            per_run = {Fraction(r.get("failed", 0), max(1, r.get("attempted", 1)))
                       for r in results}
            shares.append(per_run)
            print("set %d: attempted %d, failed %d, failed share per run %s"
                  % (number + 1, attempted, failed,
                     ", ".join("%s" % share for share in sorted(per_run))))
        if any(share != shares[0] for share in shares) or len(shares[0]) != 1:
            print("FAILED SHARE DIFFERS between runs")
            ok = False
        print("%-18s %6s %14s %14s %14s %8s %6s %8s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound", "verdict"))
        for name, entry in bounds.items():
            bound = entry["bound"]
            medians = []
            for number, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results
                          if name in r.get("metrics", {})]
                if len(values) < 2:
                    print("%-18s %6d missing" % (name, number + 1))
                    ok = False
                    continue
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                medians.append(q2)
                if name == "setup_s":
                    verdict = "(free)"
                elif spread > bound:
                    verdict = "WIDE"
                    ok = False
                elif spread > bound / 3:
                    verdict = "ok>1/3"
                else:
                    verdict = "ok"
                print("%-18s %6d %14.6g %14.6g %14.6g %7.1f%% %5.0f%% %8s" % (
                    name, number + 1, q1, q2, q3, 100 * spread, 100 * bound, verdict))
            if len(medians) == SETS:
                change = (medians[1] - medians[0]) / medians[0]
                agree = abs(change) <= bound
                ok = ok and agree
                print("%-18s medians %s: set 2 differs by %+.1f%% (bound %.0f%%)"
                      % (name, "agree" if agree else "DISAGREE", 100 * change, 100 * bound))
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out", "steady-%d.json" % int(time.time()))
    with open(path, "w") as stream:
        json.dump(record, stream)
    print("\nraw results in %s; %s" % (path, "STEADY" if ok else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
