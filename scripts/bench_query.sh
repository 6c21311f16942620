#!/usr/bin/env bash
# E14 — query latency vs. store size vs. partition count.
#
# Builds the release query_latency binary, runs the canonical query mix
# against 10k / 100k / 1M-triple stores, and writes BENCH_query.json at
# the repo root (p50/p99 per query shape with the p99/p50 tail ratio,
# morsel-vs-reference planner comparison, hash-partition sweep, and the
# morsel-executor worker sweep 1..8 with morsel/steal counters). The
# binary asserts star3's p99/p50 tail ratio stays < 3x and records
# host_cores so flat worker-sweep curves on small hosts read as what
# they are.
#
# Usage: scripts/bench_query.sh [--quick] [--offline]
#   --quick    skip the 1M-triple store (CI-sized run)
#   --offline  resolve crates from the local cargo cache only

set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=()
BIN_ARGS=()
for arg in "$@"; do
  case "$arg" in
    --offline) CARGO_FLAGS+=(--offline) ;;
    --quick) BIN_ARGS+=(quick) ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cargo run "${CARGO_FLAGS[@]}" --release -p datacron-bench --bin query_latency -- "${BIN_ARGS[@]}"
echo "==> BENCH_query.json written"
