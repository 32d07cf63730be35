#!/usr/bin/env bash
# Reproduces the full evaluation: build, test, run every table/figure
# harness, and leave test_output.txt / bench_output.txt in the repo root.
#
# Defaults run the laptop-scale TEST preset; pass a dataset name to scale
# up (the graph and its indexes are cached per dataset under
# .fannr_cache/ and opened by mmap; a file from an older format or an
# updated graph is rebuilt and overwritten in place):
#
#   scripts/reproduce.sh          # TEST (minutes)
#   scripts/reproduce.sh DE       # Delaware scale (longer; see EXPERIMENTS.md)

set -euo pipefail
cd "$(dirname "$0")/.."

export FANNR_DATASET="${1:-TEST}"

cmake -B build -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

for b in build/bench/*; do "$b"; done 2>&1 | tee bench_output.txt

echo
echo "done: test_output.txt + bench_output.txt (dataset ${FANNR_DATASET})"
