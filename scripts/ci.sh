#!/usr/bin/env bash
# Full local CI gate: formatting, lints, release build, tests.
#
# Usage: scripts/ci.sh [--offline]
#
# Pass --offline (or set CARGO_NET_OFFLINE=true) on machines without
# registry access; cargo then resolves from the local cache only.

set -euo pipefail
cd "$(dirname "$0")/.."

# Deny warnings in every build in this script, not only under clippy.
# Exported once so all cargo invocations share one artifact cache.
export RUSTFLAGS="${RUSTFLAGS:-} -D warnings"

# The event-loop suites hold four-digit connection counts from a single
# test process; the usual 1024-fd soft limit is not enough. Best-effort:
# the tests themselves also raise the server-side limit via setrlimit.
ulimit -n "$(ulimit -Hn)" 2>/dev/null || ulimit -n 16384 2>/dev/null || true

CARGO_FLAGS=()
for arg in "$@"; do
  case "$arg" in
    --offline) CARGO_FLAGS+=(--offline) ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

run() {
  echo "==> $*"
  "$@"
}

run cargo fmt --all -- --check
run cargo clippy "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings
# Workspace lint gate: all nine datacron-analysis rules (L1 no_panic,
# L2 safety_comment, L3 truncation, L4 wallclock, L5 lock_order,
# L6 reactor_blocking, L7 ffi_retcheck, L8 atomic_audit,
# L9 lock_across_call) are a hard failure. The text run prints the
# per-rule counts; the JSON run produces the machine-readable artifact
# and is timed against the lint runtime budget (the walk itself, after
# the binary is built, must stay under 5 s).
run cargo build "${CARGO_FLAGS[@]}" -q -p datacron-analysis
run cargo run "${CARGO_FLAGS[@]}" -q -p datacron-analysis
LINT_JSON="${LINT_JSON:-target/lint-report.json}"
echo "==> cargo run -q -p datacron-analysis -- --format json > ${LINT_JSON}"
lint_start=$(date +%s%N)
cargo run "${CARGO_FLAGS[@]}" -q -p datacron-analysis -- --format json > "$LINT_JSON"
lint_elapsed_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
echo "==> lint artifact: ${LINT_JSON} (${lint_elapsed_ms} ms)"
# The artifact must be well-formed JSON — CI consumers parse it blind.
run python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$LINT_JSON"
if [ "$lint_elapsed_ms" -ge 5000 ]; then
  echo "lint runtime budget exceeded: ${lint_elapsed_ms} ms >= 5000 ms" >&2
  exit 1
fi
run cargo build "${CARGO_FLAGS[@]}" --release --workspace
# Observability smoke: boot the release server, scrape `metrics` and
# `slowlog` over the wire, and assert the exposition is well-formed.
run scripts/obs_smoke.sh
# Replication smoke: boot a leader + follower pair, ingest at the
# leader, and assert the follower converges, stamps reads with its
# position, and redirects writes.
run scripts/repl_smoke.sh
# Event-loop smoke: the release server holds 1k concurrent connections
# on two worker threads and still answers every probed one.
run scripts/net_smoke.sh
run cargo test "${CARGO_FLAGS[@]}" -q --workspace
# Crash-recovery integration suite, both builds — kill/restart, a crash
# with a snapshot between begin and publish, corrupt + truncated WAL
# tails, and the group-commit crash-torture run (concurrent clients at
# fsync=always, abort mid-stream, every acked batch must replay; the
# ingest window is a fixed 300 ms so the step stays bounded). Debug is
# where the snapshot hand-off's debug_assert!s (one in flight, publish
# after begin) are live; it also ran in the workspace pass above, and
# is named here so a filtered or split test step cannot drop it. The
# durability guarantees must hold under the optimized build the server
# actually ships, hence release.
run cargo test "${CARGO_FLAGS[@]}" -q -p datacron-server --test integration_storage
run cargo test "${CARGO_FLAGS[@]}" --release -q -p datacron-server --test integration_storage
run cargo bench "${CARGO_FLAGS[@]}" --workspace --no-run
# Dependency-graph guard: the server links what it runs. None of the
# E12 stream substrate, the example-only crates or a serialisation
# framework may sit on `datacron-server`'s normal-edge graph; on failure
# the inverted tree names the offending edge.
server_graph=$(cargo tree --offline --manifest-path benchmark/Cargo.toml \
  -p datacron-server -e normal --prefix none)
for pkg in datacron-stream datacron-sim datacron-link datacron-forecast serde serde_derive rand; do
  if grep -q "^$pkg v" <<<"$server_graph"; then
    echo "datacron-server must not depend on $pkg:" >&2
    cargo tree --offline --manifest-path benchmark/Cargo.toml -e normal -i "$pkg" >&2
    exit 1
  fi
done
# One-write-path guard: the WAL's only `sync_data` is the flusher's
# (`GroupCommit::run`), and neither the inline-flush fork nor the
# worker-holding `sleep` request may come back under any name they had.
sync_sites=$(cat crates/storage/src/wal.rs crates/storage/src/commit.rs | grep -c '\.sync_data()')
if [ "$sync_sites" -ne 1 ]; then
  echo "expected exactly one sync_data() call across wal.rs + commit.rs, found $sync_sites" >&2
  exit 1
fi
retired='group_mode|enable_group_commit|group_commit_active|make_durable|take_injected_failure|Request::Sleep|MAX_SLEEP_MS'
if grep -rnE "$retired" crates/; then
  echo "retired write-path / protocol names are back (see above)" >&2
  exit 1
fi
# The benchmark harness (BENCHMARK.json) is a package of its own that
# compiles the real serve.rs and calls into core/rdf/server APIs (ingest
# paths, and for its own traced replay the partitioned store and commit
# log the server no longer uses). Build it and run its unit tests here so
# a harness-facing API break fails CI, not the benchmark run. Always
# offline: its third-party crates are the stubs it vendors.
run cargo test --offline --manifest-path benchmark/Cargo.toml
# All four workloads, traced and untraced, at 1 s against the release
# server, every reply checked against the in-process reference (~65 s):
# a serving-path answer change fails here.
run bash benchmark/run.sh --smoke

echo "==> CI green"
