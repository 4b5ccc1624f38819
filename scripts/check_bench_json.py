#!/usr/bin/env python3
"""Validate bench harness JSON documents (perf_pool, perf_scale,
perf_remote, perf_sta).

Usage: check_bench_json.py BENCH_pool.json [BENCH_scale.json ...]

Dispatches on each document's "bench" tag. CI runs this twice per
harness: against the fresh `--smoke` output (the harness cannot silently
rot) and against the checked-in BENCH_*.json capture (the committed
numbers keep the shape scripts depend on). Checks structure, not
absolute performance: required keys present, counts positive, rates
finite, size axes strictly increasing -- machine-independent by
construction.
"""
import json
import math
import sys


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


def require(path, obj, key, types):
    if key not in obj:
        fail(path, f"missing key '{key}' in {sorted(obj)}")
    if not isinstance(obj[key], types):
        fail(path, f"key '{key}' has type {type(obj[key]).__name__}")
    return obj[key]


def check_rate_row(path, row, what):
    tasks = require(path, row, "tasks", int)
    if tasks <= 0:
        fail(path, f"{what}: tasks must be positive, got {tasks}")
    require(path, row, "seconds", (int, float))
    rate = require(path, row, "tasks_per_s", (int, float))
    if not math.isfinite(rate) or rate <= 0:
        fail(path, f"{what}: tasks_per_s must be finite and positive")


def check_pool_doc(path, doc):
    if require(path, doc, "bench", str) != "perf_pool":
        fail(path, f"bench is '{doc['bench']}', expected 'perf_pool'")
    require(path, doc, "smoke", bool)
    hw = require(path, doc, "hardware_concurrency", int)
    if hw < 1:
        fail(path, "hardware_concurrency must be >= 1")

    pool = require(path, doc, "pool", list)
    if not pool:
        fail(path, "pool is empty")
    grains = set()
    for row in pool:
        workers = require(path, row, "workers", int)
        if workers < 1:
            fail(path, "pool row: workers must be >= 1")
        grains.add(require(path, row, "grain", str))
        check_rate_row(path, row, "pool row")
        stats = require(path, row, "pool_stats", dict)
        for key in ("tasks_executed", "idle_wakeups", "steals"):
            require(path, stats, key, int)
        # Every index of the region ran exactly once.
        if require(path, row, "done", int) != row["tasks"]:
            fail(path, "pool row: done != tasks")
    if grains != {"empty", "spin", "cell"}:
        fail(path, f"pool grains are {sorted(grains)}, expected "
                   "['cell', 'empty', 'spin']")


def check_seconds(path, row, what):
    secs = require(path, row, "seconds", (int, float))
    if not math.isfinite(secs) or secs <= 0:
        fail(path, f"{what}: seconds must be finite and positive")


def check_increasing(path, values, what):
    if not values:
        fail(path, f"{what}: no rows")
    if any(b <= a for a, b in zip(values, values[1:])):
        fail(path, f"{what} must be strictly increasing, got {values}")


def check_scale_doc(path, doc):
    require(path, doc, "smoke", bool)
    seed = require(path, doc, "seed", str)
    if not seed.isdigit():
        fail(path, f"seed must be a decimal string, got '{seed}'")
    if require(path, doc, "hardware_concurrency", int) < 1:
        fail(path, "hardware_concurrency must be >= 1")

    fd = require(path, doc, "find_design", list)
    for row in fd:
        for key in ("nodes", "edges", "depth", "latency_bound"):
            if require(path, row, key, int) < 1:
                fail(path, f"find_design row: {key} must be >= 1")
        require(path, row, "area_bound", (int, float))
        require(path, row, "solved", bool)
        check_seconds(path, row, "find_design row")
    check_increasing(path, [r["nodes"] for r in fd], "find_design nodes")

    sweep = require(path, doc, "sweep", list)
    for row in sweep:
        if require(path, row, "points", int) < 1:
            fail(path, "sweep row: points must be >= 1")
        check_seconds(path, row, "sweep row")
        spp = require(path, row, "seconds_per_point", (int, float))
        if not math.isfinite(spp) or spp <= 0:
            fail(path, "sweep row: seconds_per_point must be positive")
    check_increasing(path, [r["nodes"] for r in sweep], "sweep nodes")

    inject = require(path, doc, "inject", list)
    for row in inject:
        require(path, row, "component", str)
        for key in ("width", "logic_gates", "trials"):
            if require(path, row, key, int) < 1:
                fail(path, f"inject row: {key} must be >= 1")
        check_seconds(path, row, "inject row")
        rate = require(path, row, "trials_per_s", (int, float))
        if not math.isfinite(rate) or rate <= 0:
            fail(path, "inject row: trials_per_s must be positive")
    check_increasing(path, [r["width"] for r in inject], "inject widths")


def check_sta_doc(path, doc):
    require(path, doc, "smoke", bool)
    seed = require(path, doc, "seed", str)
    if not seed.isdigit():
        fail(path, f"seed must be a decimal string, got '{seed}'")
    if require(path, doc, "hardware_concurrency", int) < 1:
        fail(path, "hardware_concurrency must be >= 1")

    comps = require(path, doc, "components", list)
    for row in comps:
        require(path, row, "component", str)
        for key in ("width", "gate_count", "levels", "trials"):
            if require(path, row, key, int) < 1:
                fail(path, f"components row: {key} must be >= 1")
        check_seconds(path, row, "components row")
        rate = require(path, row, "gates_per_s", (int, float))
        if not math.isfinite(rate) or rate <= 0:
            fail(path, "components row: gates_per_s must be positive")
    check_increasing(path, [r["width"] for r in comps],
                     "components widths")

    graphs = require(path, doc, "graphs", list)
    for row in graphs:
        for key in ("nodes", "gate_count", "levels", "endpoints"):
            if require(path, row, key, int) < 1:
                fail(path, f"graphs row: {key} must be >= 1")
        check_seconds(path, row, "graphs row")
        rate = require(path, row, "gates_per_s", (int, float))
        if not math.isfinite(rate) or rate <= 0:
            fail(path, "graphs row: gates_per_s must be positive")
    check_increasing(path, [r["nodes"] for r in graphs], "graphs nodes")

    warm = require(path, doc, "warm", dict)
    for key in ("seconds_cold", "seconds_warm"):
        v = require(path, warm, key, (int, float))
        if not math.isfinite(v) or v <= 0:
            fail(path, f"warm: {key} must be finite and positive")
    if require(path, warm, "warm_executed_zero", bool) is not True:
        fail(path, "warm.warm_executed_zero must be true")


def check_remote_pass(path, row, what):
    if require(path, row, "requests", int) < 1:
        fail(path, f"{what}: requests must be >= 1")
    check_seconds(path, row, what)
    rate = require(path, row, "requests_per_s", (int, float))
    if not math.isfinite(rate) or rate <= 0:
        fail(path, f"{what}: requests_per_s must be finite and positive")
    for key in ("p50_ms", "p95_ms"):
        v = require(path, row, key, (int, float))
        if not math.isfinite(v) or v < 0:
            fail(path, f"{what}: {key} must be finite and non-negative")
    sweep = require(path, row, "sweep", dict)
    if require(path, sweep, "cells", int) < 1:
        fail(path, f"{what}: sweep.cells must be >= 1")
    slices = require(path, sweep, "slices", int)
    if slices < 1 or slices > sweep["cells"]:
        fail(path, f"{what}: sweep.slices must be in 1..cells")
    check_seconds(path, sweep, f"{what}.sweep")
    require(path, sweep, "slice_latency_avg_ms", (int, float))
    if require(path, row, "executed", int) < 0:
        fail(path, f"{what}: executed must be >= 0")


def check_remote_doc(path, doc):
    require(path, doc, "smoke", bool)
    if require(path, doc, "requests_per_client", int) < 1:
        fail(path, "requests_per_client must be >= 1")
    if require(path, doc, "clients_per_endpoint", int) < 1:
        fail(path, "clients_per_endpoint must be >= 1")

    levels = require(path, doc, "levels", list)
    for row in levels:
        endpoints = require(path, row, "endpoints", int)
        clients = require(path, row, "clients", int)
        if clients != doc["clients_per_endpoint"] * endpoints:
            fail(path, "level: clients != clients_per_endpoint * endpoints")
        cold = require(path, row, "cold", dict)
        warm = require(path, row, "warm", dict)
        check_remote_pass(path, cold, f"endpoints={endpoints} cold")
        check_remote_pass(path, warm, f"endpoints={endpoints} warm")
        # The fleet shares one cache directory per level: the cold pass
        # must have executed, the warm replay must not have.
        if cold["executed"] < 1:
            fail(path, f"endpoints={endpoints}: cold pass executed nothing")
        if warm["executed"] != 0:
            fail(path, f"endpoints={endpoints}: warm pass executed "
                       f"{warm['executed']} requests, expected 0")
    check_increasing(path, [r["endpoints"] for r in levels],
                     "remote endpoints")
    if require(path, doc, "warm_executed_total_is_zero", bool) is not True:
        fail(path, "warm_executed_total_is_zero must be true")


CHECKERS = {"perf_pool": check_pool_doc, "perf_scale": check_scale_doc,
            "perf_remote": check_remote_doc, "perf_sta": check_sta_doc}


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(path, f"not readable valid JSON: {e}")
        bench = require(path, doc, "bench", str)
        if bench not in CHECKERS:
            fail(path, f"unknown bench '{bench}', "
                       f"expected one of {sorted(CHECKERS)}")
        CHECKERS[bench](path, doc)
        print(f"{path}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
