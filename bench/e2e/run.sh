#!/usr/bin/env bash
# Build e2e_bench from this checkout into .bench_build/e2e (the first run
# configures and compiles; later runs only check it is up to date), then
# run it with the given arguments. Run from the repository root, e.g.
#
#   bash bench/e2e/run.sh --workload cnn-fedgpo-sync --seed 42 \
#       --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line on stdout is always the
# benchmark's result line.
set -euo pipefail

build=.bench_build/e2e
jobs=$(nproc 2>/dev/null || echo 1)
if [ "$jobs" -gt 4 ]; then
    jobs=4
fi

if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S bench/e2e -B "$build" >&2
fi
cmake --build "$build" --target e2e_bench -j "$jobs" >&2
exec "$build/e2e_bench" "$@"
