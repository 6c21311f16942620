#!/usr/bin/env bash
# Full local CI gate: formatting, lints, release build, tests.
#
# Usage: scripts/ci.sh
#
# The workspace depends on no registry crate (a guard below keeps it so),
# so no step needs the network or a crate cache.

set -euo pipefail
cd "$(dirname "$0")/.."

# Deny warnings in every build in this script, not only under clippy.
# Exported once so all cargo invocations share one artifact cache.
export RUSTFLAGS="${RUSTFLAGS:-} -D warnings"

# The event-loop suites hold four-digit connection counts from a single
# test process; the usual 1024-fd soft limit is not enough. Best-effort:
# the tests themselves also raise the server-side limit via setrlimit.
ulimit -n "$(ulimit -Hn)" 2>/dev/null || ulimit -n 16384 2>/dev/null || true

if [ "$#" -gt 0 ]; then
  echo "usage: scripts/ci.sh (no arguments)" >&2
  exit 2
fi

run() {
  echo "==> $*"
  "$@"
}

# Every source EXPERIMENTS.md cites for a number is in the tree: a repo
# path (`crates/…/x.rs`, `tests/x.rs`, `scripts/x.sh`), a `file::test`
# name (the last segment a `fn` in that test or source file), a
# `--test`, `--bench` or `--workload` name, and a bench group
# (`<group>/<name>…`: its first segment opens a name in a bench file,
# and each later plain segment appears in that file).
echo "==> EXPERIMENTS.md sources"
missing=()
cited() { grep -oE -e "$1" EXPERIMENTS.md | sort -u; }
for p in $(cited '`(crates|tests|scripts|examples)/[A-Za-z0-9_./-]+\.(rs|sh)`' | tr -d '`'); do
  [ -f "$p" ] || missing+=("$p")
done
for t in $(cited '`[a-z0-9_]+(::[a-z0-9_]+)+`' | tr -d '`' | grep -v '^datacron_'); do
  files=$(ls crates/*/tests/"${t%%::*}".rs tests/"${t%%::*}".rs crates/*/src/"${t%%::*}".rs 2>/dev/null || true)
  # shellcheck disable=SC2086
  [ -n "$files" ] && grep -qE "fn ${t##*::}\b" $files || missing+=("$t")
done
for t in $(cited '--test [a-z0-9_]+' | cut -d' ' -f2); do
  [ -n "$(ls crates/*/tests/"$t".rs tests/"$t".rs 2>/dev/null || true)" ] || missing+=("--test $t")
done
for b in $(cited '--bench [a-z0-9_]+' | cut -d' ' -f2); do
  [ -f "crates/bench/benches/$b.rs" ] || missing+=("--bench $b")
done
for w in $(cited '--workload [a-z_]+' | cut -d' ' -f2); do
  grep -q "\"name\": \"$w\"" BENCHMARK.json || missing+=("--workload $w")
done
for g in $(cited '`[a-z][a-z0-9_]*/[A-Za-z0-9_/.*{},]+`' | tr -d '`' \
  | grep -vE '^(crates|tests|scripts|examples|benchmark|target)/|\.(rs|sh|json|md)$'); do
  file=$(grep -l "\"${g%%/*}/" crates/bench/benches/*.rs | head -n1 || true)
  for seg in $(tr '/' '\n' <<<"${g#*/}" | grep -xE '[A-Za-z0-9_]+'); do
    [ -n "$file" ] && grep -qw "$seg" "$file" || { file=; break; }
  done
  [ -n "$file" ] || missing+=("$g")
done
if [ "${#missing[@]}" -gt 0 ]; then
  printf 'EXPERIMENTS.md cites a source that is not in the tree: %s\n' "${missing[@]}" >&2
  exit 1
fi

run cargo fmt --all -- --check
# Self-contained: every package in the whole graph (normal, dev and build
# edges) is one of the workspace's own path crates.
graph=$(cargo tree --workspace -e all --prefix none)
foreign=$(grep ' v[0-9]' <<<"$graph" | grep -v '^datacron-[a-z]* v[0-9.]* (/' || true)
if [ -n "$foreign" ]; then
  echo "the workspace must depend only on its own datacron-* path crates:" >&2
  sort -u <<<"$foreign" >&2
  exit 1
fi
run cargo clippy --workspace --all-targets -- -D warnings
# Workspace lint gate: all nine datacron-analysis rules (L1 no_panic,
# L2 safety_comment, L3 truncation, L4 wallclock, L5 lock_order,
# L6 reactor_blocking, L7 ffi_retcheck, L8 atomic_audit,
# L9 lock_across_call) are a hard failure. The text run prints the
# per-rule counts; the JSON run produces the machine-readable artifact
# and is timed against the lint runtime budget (the walk itself, after
# the binary is built, must stay under 5 s).
run cargo build -q -p datacron-analysis
run cargo run -q -p datacron-analysis
LINT_JSON="${LINT_JSON:-target/lint-report.json}"
echo "==> cargo run -q -p datacron-analysis -- --format json > ${LINT_JSON}"
lint_start=$(date +%s%N)
cargo run -q -p datacron-analysis -- --format json > "$LINT_JSON"
lint_elapsed_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
echo "==> lint artifact: ${LINT_JSON} (${lint_elapsed_ms} ms)"
# The artifact must be well-formed JSON — CI consumers parse it blind.
run python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$LINT_JSON"
if [ "$lint_elapsed_ms" -ge 5000 ]; then
  echo "lint runtime budget exceeded: ${lint_elapsed_ms} ms >= 5000 ms" >&2
  exit 1
fi
run cargo build --release --workspace
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
run cargo test -q --workspace
# Crash-recovery integration suite, both builds — every crash is the
# server's injected FaultDisk crashing (later file ops fail and write
# nothing) followed by shutdown(): kill/restart, a crash while a
# snapshot's rename is held between begin and publish, corrupt +
# truncated WAL tails, a failed flush poisoning for good, and the
# group-commit crash torture (concurrent clients at fsync=always and
# every=4, the disk crashed mid-stream — every acked batch must replay —
# then power-cut, where at most the policy's slack may be missing; the
# ingest window is a fixed 300 ms so the step stays bounded). Debug is
# where the snapshot hand-off's debug_assert!s (one in flight, publish
# after begin) are live; it also ran in the workspace pass above, and
# is named here so a filtered or split test step cannot drop it. The
# durability guarantees must hold under the optimized build the server
# actually ships, hence release.
run cargo test -q -p datacron-server --test integration_storage
run cargo test --release -q -p datacron-server --test integration_storage
# The executor's differential suite against the reference engine, in
# release too: at 2 and 4 workers the optimized build is where morsels
# are short enough for the workers' interleavings to actually race.
run cargo test --release -q -p datacron-rdf --test differential
# Restore equivalence in release too: every commit_merge model check also
# restores a snapshot of its graph and reads it back through all 8
# pattern shapes, plain and hinted, and the statistics; the literal-index
# tests restore 16 385 point literals and compare every secondary-index
# answer with a scan of the committed dictionary, live (literals not yet
# committed beside, which no read may see) and restored.
run cargo test --release -q -p datacron-rdf --test properties -- commit_merge restore_answers secondary_indexes
# The dictionary against its model in release too: encode, lookup,
# decode, iter and the bulk restore through resizes, at every load
# threshold and under colliding hashes, no encode moving more than its
# step of the growing table; and the snapshot's term section mutated
# byte by byte, every restore an error or a whole graph; and an
# N-Triples dump with each byte flipped, deleted and duplicated, every parse an
# error or a graph that round-trips.
run cargo test --release -q -p datacron-rdf --lib dict::
run cargo test --release -q -p datacron-rdf --test hostile_bytes
# The timing benches (`harness = false` binaries over datacron_bench::bench).
run cargo bench --workspace --no-run
# Dependency-graph guard: the server links what it runs. The
# example-only crates may not sit on `datacron-server`'s normal-edge
# graph; on failure the inverted tree names the offending edge.
server_graph=$(cargo tree -p datacron-server -e normal --prefix none)
for pkg in datacron-sim datacron-link datacron-forecast; do
  if grep -q "^$pkg v" <<<"$server_graph"; then
    echo "datacron-server must not depend on $pkg:" >&2
    cargo tree -e normal -i "$pkg" >&2
    exit 1
  fi
done
# One-write-path and one-fault-seam guard: every sync storage and the
# leader epoch make goes through the file layer (`disk.rs`), whose
# production implementation holds the one std `File::sync_data`; the
# only segment data sync is the flusher's (`GroupCommit::run` in
# commit.rs) — `disk.rs`'s own other call is `install_file`'s temp-file
# sync. Neither the inline-flush fork, the worker-holding `sleep`
# request nor the test hooks the fault seam replaced may come back
# under any name they had.
std_sync=$(grep -rn 'File::sync_data(' crates/storage/src crates/repl/src | cut -d: -f1)
seg_sync=$(grep -rn '\.sync_data()' crates/storage/src crates/repl/src \
  | grep -v '^crates/storage/src/disk.rs:' | cut -d: -f1)
if [ "$std_sync" != crates/storage/src/disk.rs ] || [ "$seg_sync" != crates/storage/src/commit.rs ]; then
  echo "expected one std File::sync_data() (disk.rs) and one segment sync_data() call site (commit.rs):" >&2
  grep -rn 'sync_data(' crates/storage/src crates/repl/src >&2
  exit 1
fi
# One snapshot producer: a leader serializes its state for a threshold
# snapshot and for the final one at shutdown, nowhere else. A follower is
# built from the newest snapshot *file*, so `repl_subscribe` never
# serializes under the state lock. Prints `file:fn` per call outside tests.
snap_callers=$(for f in crates/server/src/*.rs crates/server/src/bin/*.rs; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
    /^ *(pub[^ ]* )?fn [a-z_0-9]+/ { match($0, /fn [a-z_0-9]+/); name = substr($0, RSTART + 3, RLENGTH - 3) }
    /to_snapshot_bytes\(/ && !/fn to_snapshot_bytes/ { print f ":" name }' "$f"
done | sort | tr '\n' ' ')
if [ "$snap_callers" != "crates/server/src/server.rs:shutdown crates/server/src/server.rs:start_snapshot " ]; then
  echo "to_snapshot_bytes( outside tests: expected only start_snapshot and ServerHandle::shutdown, found: $snap_callers" >&2
  exit 1
fi
# One index merge: the store's commit and fold, both in `Levels::add`,
# which all five indexes (SPO/POS/OSP, spatial, temporal) share, are the
# only callers of `merge_sorted_run(` outside tests.
merge_callers=$(for f in $(grep -rl 'merge_sorted_run(' crates --include='*.rs'); do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
    /^ *(pub[^ ]* )?fn [a-z_0-9]+/ { match($0, /fn [a-z_0-9]+/); name = substr($0, RSTART + 3, RLENGTH - 3) }
    /merge_sorted_run\(/ && !/fn merge_sorted_run/ { print f ":" name }' "$f"
done | sort -u | tr '\n' ' ')
if [ "$merge_callers" != "crates/rdf/src/store.rs:add " ]; then
  echo "merge_sorted_run( outside tests: expected only Levels::add (store.rs), found: $merge_callers" >&2
  exit 1
fi
retired='group_mode|enable_group_commit|group_commit_active|make_durable|take_injected_failure|Request::Sleep|MAX_SLEEP_MS'
retired="$retired"'|inject_fsync_failures|inject_dir_sync_failures|park_before_rename|wait_parked|fn abandon|\.abandon\('
# One metrics surface: `stats` is the registry's samples under one rule,
# so no hand-built report, counter copy or write-side metric API returns.
retired="$retired"'|PipelineCounters|pipeline_stats|fn to_json|StageLatency|latency_table|struct Counter|struct Gauge'
# One log position: the analytics state's own, so no atomic copy of it
# comes back; and the lock tracker is on in every debug build, so no
# feature hides it and no hook resets it.
retired="$retired"'|head: Arc<AtomicU64>|head\.(load|store)\(|fn reset_lock_graph_for_tests|tracked-locks'
# A permutation index grows by merging sorted runs, never by a re-sort.
retired="$retired"'|\.(spo|pos|osp)\.sort'
# One executor, one graph: the morsel engine has no multi-partition mode.
retired="$retired"'|execute_routed|unit_gidx|per_unit'
# One pruning rule: the index that answers a filter. No partitioner
# routes a box or an interval, and no store counts routed partitions.
retired="$retired"'|route_bbox|route_interval|partitions_touched'
# The grid answers a point's cell and its neighbours; no box-to-cells
# walk is left without a caller.
retired="$retired"'|cells_intersecting'
# The paper's claims are tests (crates/bench/tests/claims.rs): no
# hand-run report binary, its JSON dump, the stream runtime nobody served
# from, or the sameAs saturation only an example called comes back.
retired="$retired"'|datacron[-_]stream|saturate_same_as|DATACRON_JSON_DIR|--bin report'
# One index shape: the literal indexes are sorted key runs in the graph's
# `Levels`, so no R-tree, tail limit or rebuild counter comes back.
retired="$retired"'|RTree|SPATIAL_TAIL_LIMIT|TEMPORAL_TAIL_LIMIT|spatial_builds'
# C4 runs on the one graph: the partitioned query path, its refusal and
# statistics types, and the location- and time-homed partitioners are gone.
retired="$retired"'|SpatialGridPartitioner|TemporalPartitioner|NotAStar|PartitionedStats|DecodedBindings|partitions_probed|partition_sweep'
if grep -rnE --exclude=ci.sh "$retired" crates/ tests/ examples/ scripts/; then
  echo "retired write-path / protocol / test-hook / metrics names are back (see above)" >&2
  exit 1
fi
# One restore path: a snapshot restore hands the decoded terms to the
# dictionary's bulk builder and the triples to `Graph::load`, which builds
# each index once. Neither the per-term interning path nor the commit
# routine comes back into the decoder.
if grep -nE '\.encode\(|merge_new' crates/rdf/src/binary.rs; then
  echo "crates/rdf/src/binary.rs must not name .encode( or merge_new (see above)" >&2
  exit 1
fi
# One box around a radius (`BoundingBox::around` in datacron-geo): the
# RDF store keeps no metres-per-degree guess of its own.
if grep -rn '111_000' crates/rdf/src; then
  echo "crates/rdf/src must size radius boxes with BoundingBox::around, not 111_000 (see above)" >&2
  exit 1
fi
# One representation of a filter's candidates: the spatial and temporal
# indexes answer a sorted, duplicate-free run of ids, the planner seeds
# from it as is and a join tests membership with `binary_search`, so no
# hash set of term ids comes back anywhere in the RDF crate.
if grep -rn 'FxHashSet<TermId>' crates/rdf/src; then
  echo "crates/rdf/src must not name FxHashSet<TermId>: candidates are sorted runs (see above)" >&2
  exit 1
fi
# One read path: every read sees the graph as of its last commit, so the
# executor, the literal indexes and the reference engine consult only the
# sorted levels — no uncommitted tail and no queue of new literals.
if grep -nE 'tail_triples|tail_len|pending' crates/rdf/src/morsel.rs crates/rdf/src/index.rs crates/rdf/src/engine.rs; then
  echo "crates/rdf/src/{morsel,index,engine}.rs must not name tail_triples, tail_len or pending: reads see the last commit (see above)" >&2
  exit 1
fi
# The executor knows nothing of partitions: C4's parallel query processing
# is the morsel pool over the one graph, and its pruning is the spatial and
# temporal indexes, so the module that serves every SPARQL request cannot
# grow a partition-aware mode back.
if grep -nE '\bparallel\b|Partition|gidx' crates/rdf/src/morsel.rs; then
  echo "crates/rdf/src/morsel.rs must not name parallel, Partition* or gidx (see above)" >&2
  exit 1
fi
# What is left of the partitioned store is the hash-placed copy the
# benchmark's traced replay syncs (`datacron_rdf::partition`, doc-hidden):
# no code but that module, the rdf crate root and `benchmark/` names it.
if grep -rnwE --exclude=ci.sh 'PartitionedStore|HashPartitioner' crates/ tests/ examples/ scripts/ \
  | grep -vE '^crates/rdf/src/(partition|lib)\.rs:'; then
  echo "PartitionedStore / HashPartitioner are named outside crates/rdf/src/{partition,lib}.rs and benchmark/ (see above)" >&2
  exit 1
fi
# The benchmark harness (BENCHMARK.json) is a package of its own that
# compiles the real serve.rs and calls into core/rdf/server APIs (ingest
# paths, and for its own traced replay the hash-placed partition copy and
# commit log the server no longer uses). Build it and run its unit tests here so
# a harness-facing API break fails CI, not the benchmark run. Always
# offline: its third-party crates are the stubs it vendors.
run cargo test --offline --manifest-path benchmark/Cargo.toml
# All four workloads, traced and untraced, at 1 s against the release
# server, every reply checked against the in-process reference (~65 s):
# a serving-path answer change fails here.
run bash benchmark/run.sh --smoke

echo "==> CI green"
