#!/usr/bin/env python3
"""Validates BENCH_throughput.json: schema plus sanity invariants.

CI runs this after the throughput smoke so a benchmark that silently
produces garbage (NaN rates, empty cells, a cache whose attributed
hit/miss sums disagree with its own counters) fails the build instead of
uploading a broken artifact.

Usage: check_throughput_json.py [path-to-BENCH_throughput.json]
"""

import json
import math
import sys

REQUIRED_TOP_LEVEL = [
    "dataset",
    "batch_size",
    "p_size",
    "reps",
    "speedup_engine8_cached_vs_seq_uncached",
    "obs_overhead_percent",
    "cells",
    "report",
]
REQUIRED_CELL = [
    "config",
    "threads",
    "cached",
    "observed",
    "mean_ms",
    "qps",
    "cache_hits",
    "cache_misses",
    "heap_grows",
    "heap_grows_construct",
    "heap_grows_solve",
]

# Thread-scaling gate: each engine-nocache step may lose at most 10% qps
# vs the previous thread count. Each cell's qps is the median of the
# bench's fixed interleaved rounds over the whole ladder, so every step
# is compared under the same ambient load. On a single-core host the curve is flat
# (so this passes trivially); on multicore it catches a scaling collapse
# from lock/allocator contention or false sharing. The 0.9 floor leaves
# room for benchmark noise without letting a real regression through.
NOCACHE_STEP_FLOOR = 0.9
NOCACHE_REQUIRED_THREADS = [1, 2, 4, 8]

# Observability-overhead bar, on the bench's paired-median measurement
# (plain and observed engines interleaved run by run; each sample is the
# median of enough fresh-engine runs to span >= 50 ms; medians of 9 pairs
# compared). The tracing decorator plus the slow-query log's lock-free
# drop path keep the observed run within a couple percent of the plain
# one; 3% still catches a lock reintroduced on the per-query path. (The
# old 5% bar dated from when SlowQueryLog::Offer serialized every worker
# on one mutex just to count the offer, and from a noisier methodology —
# comparing the means of two cells run minutes apart.)
OBS_OVERHEAD_MAX_PERCENT = 3.0
REQUIRED_REPORT = [
    "batch_size",
    "rejected",
    "num_threads",
    "wall_ms",
    "queries_per_second",
    "solve_ms",
    "cache",
    "attributed_cache_hits",
    "attributed_cache_misses",
    "pool_indices_executed",
    "counters",
    "gauges",
    "histograms",
]
REQUIRED_HISTOGRAM = ["count", "sum", "min", "max", "mean", "p50", "p95",
                      "p99", "bounds", "counts"]

_errors = []


def check(condition, message):
    if not condition:
        _errors.append(message)


def finite_positive(value):
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def check_histogram(h, label):
    for key in REQUIRED_HISTOGRAM:
        check(key in h, f"{label}: missing key '{key}'")
    if _errors:
        return
    check(len(h["counts"]) == len(h["bounds"]) + 1,
          f"{label}: counts must have len(bounds)+1 buckets")
    check(sum(h["counts"]) == h["count"],
          f"{label}: bucket counts sum to {sum(h['counts'])}, "
          f"count says {h['count']}")
    if h["count"] > 0:
        check(h["min"] <= h["p50"] <= h["p95"] <= h["p99"] <= h["max"],
              f"{label}: percentiles not monotone within [min, max]")


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_throughput.json"
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot parse {path}: {e}", file=sys.stderr)
        return 1

    for key in REQUIRED_TOP_LEVEL:
        check(key in data, f"missing top-level key '{key}'")
    if _errors:
        print("FAIL:\n  " + "\n  ".join(_errors), file=sys.stderr)
        return 1

    check(data["batch_size"] >= 1, "batch_size must be >= 1")
    check(math.isfinite(data["obs_overhead_percent"]),
          "obs_overhead_percent is not finite")
    if math.isfinite(data.get("obs_overhead_percent", math.nan)):
        check(data["obs_overhead_percent"] <= OBS_OVERHEAD_MAX_PERCENT,
              f"observability overhead {data['obs_overhead_percent']:.2f}% "
              f"exceeds the {OBS_OVERHEAD_MAX_PERCENT}% bar")
    check(finite_positive(data["speedup_engine8_cached_vs_seq_uncached"]),
          "speedup is not a positive finite number")

    cells = data["cells"]
    check(len(cells) > 0, "cells array is empty")
    configs = set()
    for cell in cells:
        missing = [key for key in REQUIRED_CELL if key not in cell]
        for key in missing:
            check(False, f"cell {cell.get('config', '?')}: "
                         f"missing key '{key}'")
        if missing:
            continue  # skip value checks, but keep validating other cells
        label = f"cell {cell['config']} T={cell['threads']}"
        configs.add(cell["config"])
        check(finite_positive(cell["qps"]), f"{label}: qps must be positive")
        check(finite_positive(cell["mean_ms"]),
              f"{label}: mean_ms must be positive")
        check(isinstance(cell["heap_grows"], int) and cell["heap_grows"] >= 0,
              f"{label}: heap_grows must be a non-negative integer")
        # Solve-phase allocation gate: workers prewarm their search
        # scratch to the NumArcs()+1 worst case at engine construction,
        # so the solve phase never grows a heap — for ANY cell. A nonzero value
        # means an un-prewarmed heap crept back onto the query path and
        # heap_grows is race-dependent again.
        check(cell.get("heap_grows_solve") == 0,
              f"{label}: heap_grows_solve is "
              f"{cell.get('heap_grows_solve')}, must be exactly 0 "
              f"(solve phase regrew a heap)")
        check(cell.get("heap_grows_construct", -1) >= 0 and
              cell.get("heap_grows_construct", 0) +
              cell.get("heap_grows_solve", 0) == cell["heap_grows"],
              f"{label}: heap_grows must equal construct + solve split")
        if not cell["cached"]:
            check(cell["cache_hits"] + cell["cache_misses"] == 0,
                  f"{label}: uncached cell reports cache activity")
    for expected in ("seq-uncached", "engine-nocache", "engine-cached",
                     "engine-cached+obs"):
        check(expected in configs, f"missing cell config '{expected}'")

    # Thread-scaling gate over the engine-nocache ladder.
    nocache = sorted((c for c in cells
                      if c.get("config") == "engine-nocache"),
                     key=lambda c: c["threads"])
    nocache_threads = [c["threads"] for c in nocache]
    check(nocache_threads == NOCACHE_REQUIRED_THREADS,
          f"engine-nocache ladder must cover threads "
          f"{NOCACHE_REQUIRED_THREADS}, got {nocache_threads}")
    for prev, cur in zip(nocache, nocache[1:]):
        if not (finite_positive(prev["qps"]) and finite_positive(cur["qps"])):
            continue  # already reported above
        check(cur["qps"] >= NOCACHE_STEP_FLOOR * prev["qps"],
              f"thread scaling regression: engine-nocache qps drops from "
              f"{prev['qps']:.1f} (T={prev['threads']}) to "
              f"{cur['qps']:.1f} (T={cur['threads']}); each step must stay "
              f">= {NOCACHE_STEP_FLOOR}x the previous")

    report = data["report"]
    for key in REQUIRED_REPORT:
        check(key in report, f"report: missing key '{key}'")
    if not _errors:
        check(report["rejected"] == 0, "report: benchmark jobs were rejected")
        check(finite_positive(report["queries_per_second"]),
              "report: queries_per_second must be positive")
        check(report["solve_ms"]["count"] ==
              report["batch_size"] - report["rejected"],
              "report: solve_ms histogram must have one sample per "
              "executed query")
        check_histogram(report["solve_ms"], "report.solve_ms")

        # The core cross-check: the cache's own counters, the per-query
        # attributed sums from the traces, and the registry's published
        # totals must all agree.
        cache = report["cache"]
        check(cache["hits"] + cache["misses"] == cache["lookups"],
              f"report.cache: hits ({cache['hits']}) + misses "
              f"({cache['misses']}) != lookups ({cache['lookups']})")
        check(report["attributed_cache_hits"] == cache["hits"],
              "report: per-query attributed hits disagree with the "
              "cache's own counter")
        check(report["attributed_cache_misses"] == cache["misses"],
              "report: per-query attributed misses disagree with the "
              "cache's own counter")
        counters = report["counters"]
        check(counters.get("cache.hits") == cache["hits"],
              "report: registry counter cache.hits disagrees")
        check(counters.get("cache.misses") == cache["misses"],
              "report: registry counter cache.misses disagrees")
        check(counters.get("engine.queries", 0) >= report["batch_size"],
              "report: engine.queries counter below batch size")

    if _errors:
        print("FAIL:\n  " + "\n  ".join(_errors), file=sys.stderr)
        return 1
    print(f"OK: {path} passes schema and sanity checks "
          f"({len(cells)} cells, report covers "
          f"{report['batch_size']} queries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
