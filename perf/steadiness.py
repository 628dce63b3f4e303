#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each with another seed, and
prints each metric's median, quartiles and spread (the distance between the
first and third quartile as a share of the median).

    python3 perf/steadiness.py --runs 10 [--workloads cew_occ cew_cloud] [--trace 0]

Reads BENCHMARK.json for the workloads, run length and bounds; run from the
root of a checkout.  A spread at or above a metric's bound is flagged.  Each
run's log goes to <build dir>/steadiness/<workload>-seed<n>.log.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    logs = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
                        "steadiness")
    os.makedirs(logs, exist_ok=True)

    ok = True
    for workload in args.workloads:
        values, shares = {}, set()
        for i in range(args.runs):
            seed = args.first_seed + i
            log = os.path.join(logs, "%s-seed%d.log" % (workload, seed))
            with open(log, "w") as err:
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)],
                    stdout=subprocess.PIPE, stderr=err)
            lines = done.stdout.decode().splitlines()
            if done.returncode != 0 or not lines:
                print("%s seed %d: exit %d, see %s" % (workload, seed, done.returncode, log))
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s: %d runs, failed share %s" % (workload, args.runs, sorted(shares)))
        for name, vals in values.items():
            median = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and spread >= bound / 3:
                flag = "  over a third of the bound"
            print("  %-36s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%%s"
                  % (name, median, q1, q3, 100 * spread, flag))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
