#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perf/selftest.py

Run from the root of a checkout.  It checks that:
  - the output checker rejects balance sheets that are off by one;
  - every workload runs in both modes at 200 accounts, passes its output
    checks and prints every metric BENCHMARK.json names, with its unit;
  - every end-to-end metric is above 0, and every per-layer metric is above
    0 on each workload that crosses its layer (counts of rare events, such
    as retries and conflicts, may be 0 at these sizes and are not checked);
  - in a directory holding only BENCHMARK.json and the benchmark, the
    command fails without printing a result.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# Per-layer metrics that count rare events or paths these configurations do
# not take; they may read 0 wherever they are printed.
MAY_BE_ZERO = {
    "core.retries_per_ktx",
    "txn.lock_busy_per_ktx",
    "txn.conflicts_per_ktx",
    "txn.occ_validate_fails_per_ktx",
    "txn.commit_multiget_per_transfer",
    "txn.commit_put_per_transfer",
    "txn.commit_multiwrite_per_transfer",
}

# Layers each workload crosses, by metric-name prefix.
ALL = ("core.", "measurement.", "db.", "txn.read_", "txn.commit_self", "txn.commit_us",
       "txn.commits_", "txn.scan_")
STORE = ("txn.store_calls", "txn.commit_get", "txn.commit_cas", "txn.commit_delete",
         "kv.calls", "kv.read_self", "kv.write_self")
CROSSES = {
    "cew_occ": ALL + ("txn.occ_",),
    "cew_cloud": ALL + STORE + ("cloud.",),
    "cew_durable": ALL + STORE + ("kv.wal_", "kv.replay_"),
}


def fail(message):
    print("SELFTEST FAILED: " + message)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--records", "200"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = done.stdout.decode().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr.decode()[-4000:])
        fail("%s --trace %d exited %d" % (workload, trace, done.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    # The first run builds the binary the checker test uses.
    results = {}
    for w in bench["workloads"]:
        for trace in (0, 1):
            results[(w["name"], trace)] = run(w["name"], trace)

    done = subprocess.run([os.path.join(build_dir(), "perf_bench"), "--checker-selftest"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if done.returncode != 0:
        fail("checker: " + done.stderr.decode())
    print("checker rejects off-by-one balance sheets: ok")

    for (workload, trace), result in results.items():
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail("%s: result keys %s" % (workload, sorted(result)))
        if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
            fail("%s --trace %d: %s" % (workload, trace, {k: result[k] for k in
                                                           ("correct", "attempted", "failed")}))
        expected = bench["per_layer"] if trace else bench["end_to_end"]
        metrics = result["metrics"]
        if set(metrics) != {m["name"] for m in expected}:
            fail("%s --trace %d prints %s" % (workload, trace, sorted(metrics)))
        for m in expected:
            got = metrics[m["name"]]
            if got["unit"] != m["unit"]:
                fail("%s: %s has unit %s, not %s" % (workload, m["name"], got["unit"], m["unit"]))
            crossed = not trace or (m["name"].startswith(CROSSES[workload]) and
                                    m["name"] not in MAY_BE_ZERO)
            if crossed and not got["value"] > 0:
                fail("%s: %s is %r on a workload that crosses its layer"
                     % (workload, m["name"], got["value"]))
        print("%s --trace %d: %d metrics with units, checks passed" % (workload, trace, len(metrics)))

    # Without the product's sources the command must fail and print no result.
    bare = os.path.join(build_dir(), "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    done = subprocess.run(bench["command"] + ["--workload", "cew_occ", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        fail("a checkout without the product's sources exited %d and printed %r"
             % (done.returncode, done.stdout[-200:]))
    print("a checkout without the product's sources fails without a result: ok")
    print("selftest passed")


if __name__ == "__main__":
    main()
