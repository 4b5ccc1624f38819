#!/usr/bin/env python3
"""Builds and runs the rchls repository benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload corpus_cold|replay_warm|serve_warm
      [--seed N] [--seconds S] [--trace 0|1]
      [--corpus-seed N] [--corpus-count N] [--jobs N]

The defaults of --corpus-seed, --corpus-count and --jobs are the
configuration BENCHMARK.json records.

The first run configures and builds perfbench/ (CMake, Release) into
.bench_build/perfbench; later runs only check the build is current. The
binary's output is relayed, and the last line of standard output is the
JSON result {"correct", "attempted", "failed", "metrics"}. Records and
Chrome traces land in .bench_build/perfbench-out.

Exits non-zero without printing a result when the rchls sources are not
in the checkout, the build fails, or rchls_perfbench fails or overruns.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "rchls_perfbench")
WORKLOADS = ("corpus_cold", "replay_warm", "serve_warm")

# A run (set-ups, measured phases, checks) must end well inside 180 s.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures on first use, then brings the build up to date.

    Build output goes to stderr so standard output stays the result.
    """
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 8))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], cwd=ROOT,
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="replay seed: case order, client interleaving, "
                         "oracle samples")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=2026)
    ap.add_argument("--corpus-count", type=int, default=240)
    ap.add_argument("--jobs", type=int, default=1,
                    help="engine workers; 0 = the CLI default (nproc)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "api", "session.hpp")):
        fail("no rchls sources (src/) in " + ROOT)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corpus-seed", str(args.corpus_seed),
           "--corpus-count", str(args.corpus_count),
           "--jobs", str(args.jobs),
           "--manifest", os.path.join("perfbench", "manifest.json"),
           "--work-dir", os.path.join(".bench_build", "perfbench-work"),
           "--out-dir", os.path.join(".bench_build", "perfbench-out")]

    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("rchls_perfbench still running after %d s; stopped" % RUN_TIMEOUT_S, 1)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("rchls_perfbench exited with status %d" % proc.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        fail("rchls_perfbench printed no result line", 1)
    print("\n".join(lines[:-1]))
    print("run.py: rchls_perfbench took %.1f s" % (time.monotonic() - start))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
