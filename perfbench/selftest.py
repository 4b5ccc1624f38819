#!/usr/bin/env python3
"""Tiny-size self-test of the repository benchmark.

Run from the root of a checkout:

  python3 perfbench/selftest.py

Runs BENCHMARK.json's command on every workload, untraced and traced,
over a 12-case corpus for one second, and checks the result line
against the contract:
exactly the keys correct/attempted/failed/metrics, a correct run with no
failures, and exactly the end-to-end (untraced) or per-layer (traced)
metrics of BENCHMARK.json with their units. Then checks that run.py,
given only BENCHMARK.json and perfbench/, fails without a result.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Later flags win, so these shrink the recorded command's corpus.
TINY = ["--corpus-count", "12", "--seconds", "1", "--seed", "3"]


def run(bench, args, cwd):
    return subprocess.run(bench["command"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check_result(bench, workload, trace, errors):
    proc = run(bench, ["--workload", workload, "--trace", str(trace)] + TINY,
               ROOT)
    tag = "%s trace=%d" % (workload, trace)
    if proc.returncode != 0:
        errors.append("%s: exit %d: %s" % (tag, proc.returncode,
                                           proc.stderr[-500:]))
        return
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (tag, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("%s: correct=%s failed=%s\n%s" % (
            tag, result["correct"], result["failed"], proc.stdout[-2000:]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("%s: attempted=%r" % (tag, result["attempted"]))
    want = bench["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in want):
        errors.append("%s: metric names differ from BENCHMARK.json" % tag)
        return
    for m in want:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            errors.append("%s: %s unit %r" % (tag, m["name"], got.get("unit")))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (tag, m["name"], value))
        elif not trace and value <= 0:
            errors.append("%s: end-to-end %s is %r" % (tag, m["name"], value))


def check_bare_directory(bench, errors):
    # Only BENCHMARK.json and the benchmark's own paths: no sources, so
    # run.py must fail without printing a result.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        proc = run(bench, ["--workload", bench["workloads"][0]["name"]], bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            errors.append("bare directory: run.py exited %d with output %r"
                          % (proc.returncode, proc.stdout[-200:]))
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_result(bench, w["name"], trace, errors)
    check_bare_directory(bench, errors)
    for e in errors:
        print("FAIL " + e)
    print("selftest: %d workloads x 2 modes, %d failures"
          % (len(bench["workloads"]), len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
