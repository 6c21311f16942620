#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build the server and the
# harness from this checkout's source, then run the harness with the
# arguments given. Run from the root of the checkout.
#
#   bash benchmark/run.sh --workload query_mix --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --smoke
#   bash benchmark/run.sh --repeat 5
set -euo pipefail

manifest="$(dirname "$0")/Cargo.toml"
# Where cargo puts the binaries: the driver sets CARGO_TARGET_DIR; without
# it cargo uses target/ beside the manifest.
target="${CARGO_TARGET_DIR:-$(dirname "$0")/target}"

# Both binaries in one build, so the server can never be stale relative to
# the harness. Offline: third-party crates resolve to stubs/ (see README.md).
cargo build --release --offline --quiet --manifest-path "$manifest"
exec "$target/release/benchmark" "$@"
