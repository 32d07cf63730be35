#!/usr/bin/env python3
"""Validates BENCH_scale.json: schema plus the scale-gate invariants.

CI runs this after the scale smoke (10^4 and 10^5 cells); the committed
artifact additionally carries the 10^6 cell from the nightly/local run.
The hard requirements:

  * every cell's parallel DIMACS parse produced the identical graph
    (fingerprint equality, computed by the bench itself), and every
    cell's GD answers on the mmap-loaded graph are bitwise identical to
    the in-memory ones at 1 and 8 threads;
  * the default (header-only) mmap *graph* load beats the reference
    load — LoadMmap under kFull, which reads and checksums every payload
    byte — by >= 4x at 10^5 vertices and up. The graph bar stays modest
    on purpose: the header-only load keeps the O(V+E) structural-safety
    scan, so its win over a read of every byte is bounded. Below 10^5
    the ratio is noise (both loads are sub-millisecond) and is only
    required to be finite and positive;
  * the header-only mmap *index* load — the case the format exists for,
    since a G-tree file is mostly per-node matrices that the structural
    scan never reads — beats the kFull reference by >= 20x wherever the
    index was built at >= 10^5 vertices, and the largest cell in the
    file must have built it (CI's default gate is 150k, so the 10^5
    smoke cell carries the bar there; the committed artifact carries it
    at 10^6). Answers through the mmap-loaded index must be bitwise
    identical to the built-in-memory index at 1 and 8 threads.

The two bars replaced bars against a since-deleted stream format (2x
and 10x over its load). The kFull load took 0.7-2.3x (graph) and
0.8-1.9x (G-tree) as long as that stream load (EXPERIMENTS.md, "One
index format"), so 4x and 20x stand for at least 2.8x and 16x over it:
no looser than the bars they replaced.

Usage: check_scale_json.py [path-to-BENCH_scale.json]
"""

import json
import math
import sys

REQUIRED_CELL = [
    "target_vertices",
    "num_vertices",
    "num_edges",
    "gen_ms",
    "parse_seq_ms",
    "parse_par_ms",
    "parse_speedup",
    "parallel_load_identical",
    "graph",
    "gtree",
    "query_mean_ms_t1",
    "query_mean_ms_t8",
    "query_identical",
]
REQUIRED_GRAPH = [
    "v3_bytes",
    "v3_save_ms",
    "v3_full_load_ms",
    "v3_mmap_load_ms",
    "mmap_speedup",
]

REQUIRED_GTREE = [
    "leaf_capacity",
    "build_ms",
    "v3_bytes",
    "v3_save_ms",
    "v3_full_load_ms",
    "v3_mmap_load_ms",
    "mmap_speedup",
    "query_mean_ms_t1",
    "query_mean_ms_t8",
    "query_identical",
]

# |V| thresholds for the graph mmap-load speedup bar (over kFull).
SPEEDUP_BARS = [
    (100_000, 4.0),
]

# The index bar: wherever the G-tree was built at this size or above,
# its header-only mmap load must beat its kFull load by this much.
INDEX_BAR_MIN_V = 100_000
INDEX_BAR = 20.0

_errors = []


def check(condition, message):
    if not condition:
        _errors.append(message)


def finite_positive(value):
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def required_speedup(num_vertices):
    for threshold, bar in SPEEDUP_BARS:
        if num_vertices >= threshold:
            return bar
    return None


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_scale.json"
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot parse {path}: {e}", file=sys.stderr)
        return 1

    cells = data.get("cells")
    check(isinstance(cells, list) and len(cells) > 0,
          "cells must be a non-empty array")
    if _errors:
        print("FAIL:\n  " + "\n  ".join(_errors), file=sys.stderr)
        return 1

    for cell in cells:
        for key in REQUIRED_CELL:
            check(key in cell,
                  f"cell |V|={cell.get('num_vertices', '?')}: "
                  f"missing key '{key}'")
        if _errors:
            break
        label = f"cell |V|={cell['num_vertices']}"
        for key in REQUIRED_GRAPH:
            check(key in cell["graph"], f"{label}: graph missing key '{key}'")
        if _errors:
            break

        check(cell["num_vertices"] > 0, f"{label}: empty graph")
        check(cell["parallel_load_identical"] is True,
              f"{label}: parallel DIMACS parse produced a DIFFERENT graph")
        check(cell["query_identical"] is True,
              f"{label}: answers on the mmap-loaded graph are not bitwise "
              f"identical to the in-memory ones")
        for key in ("gen_ms", "parse_seq_ms", "parse_par_ms"):
            check(finite_positive(cell[key]),
                  f"{label}: {key} must be positive and finite")

        graph = cell["graph"]
        check(graph["v3_bytes"] > 0, f"{label}: cache file is empty")
        check(finite_positive(graph["v3_full_load_ms"]) and
              finite_positive(graph["v3_mmap_load_ms"]),
              f"{label}: load timings must be positive and finite")
        check(finite_positive(graph["mmap_speedup"]),
              f"{label}: mmap_speedup must be positive and finite")
        bar = required_speedup(cell["num_vertices"])
        if bar is not None and finite_positive(graph["mmap_speedup"]):
            check(graph["mmap_speedup"] >= bar,
                  f"{label}: mmap load is only "
                  f"{graph['mmap_speedup']:.1f}x faster than the kFull "
                  f"load; the bar at this size is {bar}x")

        gtree = cell["gtree"]
        if gtree.get("built"):
            for key in REQUIRED_GTREE:
                check(key in gtree, f"{label}: gtree missing key '{key}'")
            check(finite_positive(gtree.get("mmap_speedup", 0)),
                  f"{label}: gtree mmap_speedup must be positive")
            check(gtree.get("v3_bytes", 0) > 0,
                  f"{label}: gtree v3 file is empty")
            check(gtree.get("query_identical") is True,
                  f"{label}: answers on the mmap-loaded G-tree are not "
                  f"bitwise identical to the built-in-memory index")
            if cell["num_vertices"] >= INDEX_BAR_MIN_V and finite_positive(
                    gtree.get("mmap_speedup", 0)):
                check(gtree["mmap_speedup"] >= INDEX_BAR,
                      f"{label}: index mmap load is only "
                      f"{gtree['mmap_speedup']:.1f}x faster than the kFull "
                      f"load; the index bar is {INDEX_BAR}x")

    if not _errors:
        largest = max(cells, key=lambda c: c["num_vertices"])
        check(largest["gtree"].get("built") is True,
              f"the largest cell (|V|={largest['num_vertices']}) must build "
              f"the G-tree so the index bar has something to measure")

    if _errors:
        print("FAIL:\n  " + "\n  ".join(_errors), file=sys.stderr)
        return 1
    sizes = ", ".join(str(c["num_vertices"]) for c in cells)
    print(f"OK: {path} passes the scale gate ({len(cells)} cells: {sizes})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
