#!/usr/bin/env python3
"""Builds and runs the YCSB+T end-to-end benchmark.

    python3 perf/run.py --workload cew_occ --seed 7 --seconds 10 --trace 0

Run from the root of a checkout.  The first run configures and builds the
product libraries and the benchmark binary (perf/CMakeLists.txt) in the
build directory, `$CARGO_TARGET_DIR` or `.bench_build`; later runs rebuild
only what changed.  Build output and the run's log go to stderr; the last
line of stdout is the result object.  The exit code is the benchmark's, or
non-zero when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(path)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return done.returncode
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["cew_occ", "cew_cloud", "cew_durable"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--records", type=int, default=0,
                        help="override the account count (self-test sizes)")
    args = parser.parse_args()

    out = build_dir()
    rc = build(out)
    if rc != 0:
        print("build failed", file=sys.stderr)
        return rc

    cmd = [os.path.join(out, "perf_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.records:
        cmd += ["--records", str(args.records)]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = done.stdout.decode().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if done.returncode == 0 and lines:
        print(lines[-1])
    elif lines:
        print(lines[-1], file=sys.stderr)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
