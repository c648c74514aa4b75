#!/usr/bin/env bash
# Build the benchmark from the repository sources (incremental after the
# first run) and run one workload:
#
#   bash bcbench/run.sh --workload kron-sampled|road-exact-batched|citation-serve \
#        --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr and to
# .bench_build/bcbench; the last line of stdout is the run's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build=".bench_build/bcbench"

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" --target bcbench >&2
exec "$build/bcbench" "$@"
