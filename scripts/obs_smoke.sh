#!/usr/bin/env bash
# Observability smoke test.
#
# Boots the release server on a kernel-assigned port with a throwaway
# data dir, drives one ingest plus the `metrics` and `slowlog` requests
# over the wire (plain bash /dev/tcp, no client tooling required), and
# asserts the exposition is well-formed: the expected metric families
# are present and the slow log carries span breakdowns. A second boot
# under `--fsync every=4` checks that policy acks off the watermark too.
#
# Usage: scripts/obs_smoke.sh   (expects `cargo build --release` done)

set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/datacron-serve
if [[ ! -x "$BIN" ]]; then
  echo "obs-smoke: $BIN not found; run 'cargo build --release' first" >&2
  exit 1
fi

# A retired or unknown flag is a usage error (exit 2), never ignored.
rc=0; timeout 5 "$BIN" --sparql-partitions 4 2>/dev/null || rc=$?
[[ $rc -eq 2 ]] || { echo "obs-smoke: unknown flag exited $rc, want 2" >&2; exit 1; }

LOG=$(mktemp /tmp/obs-smoke-log.XXXXXX)
DATA=$(mktemp -d /tmp/obs-smoke-data.XXXXXX)
SERVER_PID=""
cleanup() {
  if [[ -n "$SERVER_PID" ]]; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$LOG" "$DATA"
}
trap cleanup EXIT

# Boots the server on a fresh data dir with the given extra flags and
# opens fd 3 to it.
boot() {
  rm -rf "$DATA" && mkdir -p "$DATA"
  "$BIN" --addr 127.0.0.1:0 --workers 2 --queue 16 --data-dir "$DATA" "$@" >"$LOG" 2>&1 &
  SERVER_PID=$!
  # The server prints its bound address once the listener is up.
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^datacron-server listening on \([0-9.:]*\) .*/\1/p' "$LOG")
    [[ -n "$addr" ]] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
      echo "obs-smoke: server exited during startup:" >&2
      cat "$LOG" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [[ -z "$addr" ]]; then
    echo "obs-smoke: server did not report a listen address:" >&2
    cat "$LOG" >&2
    exit 1
  fi
  exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
}

halt() {
  exec 3<&- 3>&-
  kill "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
}

# --snapshot-every 1: the one ingest below crosses the threshold, so the
# snapshot stages have a sample each.
boot --snapshot-every 1

# Sends one newline-delimited JSON request and reads the one-line reply
# into RESP, asserting the server answered `"ok": true`.
RESP=""
request() {
  printf '%s\n' "$1" >&3
  IFS= read -r RESP <&3
  if [[ "$RESP" != *'"ok":true'* && "$RESP" != *'"ok": true'* ]]; then
    echo "obs-smoke: request failed: $1" >&2
    echo "obs-smoke: response: $RESP" >&2
    exit 1
  fi
}

# Exercise the write path so every subsystem has something to report:
# two vessels 200 m apart, three plausible fixes each (6 m/s east),
# interleaved, so the pair detectors have a neighbour to look at. The
# protocol is one JSON object per line, so the batch must stay on a
# single line.
request "$(printf '%s' \
  '{"type":"ingest","reports":[' \
  '{"object":9,"t_ms":0,"lon":21.0,"lat":37.0,"speed_mps":6.0,"heading_deg":90.0},' \
  '{"object":10,"t_ms":1000,"lon":21.0,"lat":37.0018,"speed_mps":6.0,"heading_deg":90.0},' \
  '{"object":9,"t_ms":10000,"lon":21.00068,"lat":37.0,"speed_mps":6.0,"heading_deg":90.0},' \
  '{"object":10,"t_ms":11000,"lon":21.00068,"lat":37.0018,"speed_mps":6.0,"heading_deg":90.0},' \
  '{"object":9,"t_ms":20000,"lon":21.00136,"lat":37.0,"speed_mps":6.0,"heading_deg":90.0},' \
  '{"object":10,"t_ms":21000,"lon":21.00136,"lat":37.0018,"speed_mps":6.0,"heading_deg":90.0}]}')"

# The snapshot is written off the serving path: wait until it is
# installed, and check the start-up recovery phases are reported.
for _ in $(seq 1 100); do
  request '{"type":"stats"}'
  [[ "$RESP" == *'"snapshot_in_flight":0'* && "$RESP" == *'"last_snapshot_seq":1'* ]] && break
  sleep 0.05
done
for needle in '"snapshot_in_flight":0' '"last_snapshot_seq":1' \
  '"recovery_us":{"wal_open":' '"snapshot_load":' '"wal_read":' '"restore":' \
  '"replay":'; do
  if [[ "$RESP" != *"$needle"* ]]; then
    echo "obs-smoke: stats.storage missing $needle" >&2
    echo "obs-smoke: response: $RESP" >&2
    exit 1
  fi
done
# `stats` is the registry's samples under one rule, so what it reports
# here must be what the exposition carries: "<stats needle> <series>".
STATS=$RESP
PAIRS=(
  '"last_snapshot_seq": datacron_storage_last_snapshot_seq'
  '"reports_in": datacron_pipeline_reports_in_total'
  '"graph":{"folds": datacron_graph_folds_total'
  '"folds":[0-9]*,"terms": datacron_graph_terms'
  '"terms":[0-9]*,"triples": datacron_graph_triples'
)

request '{"type":"metrics"}'
for family in \
  '# TYPE datacron_request_latency_us summary' \
  '# TYPE datacron_pipeline_stage_latency_us summary' \
  '# TYPE datacron_requests_total counter' \
  '# TYPE datacron_queue_depth gauge' \
  '# TYPE datacron_net_open_connections gauge' \
  '# TYPE datacron_net_loop_latency_us summary' \
  '# TYPE datacron_graph_triples gauge' \
  '# TYPE datacron_graph_terms gauge' \
  '# TYPE datacron_graph_folds_total counter' \
  '# TYPE datacron_wal_bytes gauge' \
  '# TYPE datacron_wal_fsync_latency_us summary' \
  '# TYPE datacron_wal_acks_parked_total counter' \
  '# TYPE datacron_storage_snapshot_in_flight gauge'; do
  if [[ "$RESP" != *"$family"* ]]; then
    echo "obs-smoke: exposition missing \"$family\"" >&2
    echo "obs-smoke: response: $RESP" >&2
    exit 1
  fi
done
# The store commit is a stage of its own, one sample per ingest batch
# (the exposition travels JSON-escaped, hence the backslashes).
series='datacron_pipeline_stage_latency_us_count{stage=\"commit\"} 1\n'
if [[ "$RESP" != *"$series"* ]]; then
  echo "obs-smoke: exposition missing the commit stage ($series)" >&2
  echo "obs-smoke: response: $RESP" >&2
  exit 1
fi
# Candidates the pair detectors examined: every report but the first
# found the other vessel's fix, in both detectors (5 x 2). A count, so
# it repeats exactly.
series='datacron_cep_pair_candidates_total 10\n'
if [[ "$RESP" != *"$series"* ]]; then
  echo "obs-smoke: exposition missing $series" >&2
  echo "obs-smoke: response: $RESP" >&2
  exit 1
fi
# The durable write path's stages, one sample each after one ingest
# that crossed the snapshot threshold.
for hist in datacron_wal_append_latency_us \
  datacron_ingest_durable_wait_latency_us \
  datacron_storage_snapshot_serialize_latency_us \
  datacron_storage_snapshot_write_latency_us; do
  if [[ "$RESP" != *"${hist}_count 1\\n"* ]]; then
    echo "obs-smoke: exposition missing ${hist}_count 1" >&2
    echo "obs-smoke: response: $RESP" >&2
    exit 1
  fi
done
FAMILIES=$(grep -o '# TYPE' <<<"$RESP" | wc -l)
for pair in "${PAIRS[@]}"; do
  needle=${pair% *} series=${pair##* }
  value=$(sed -n "s/.*${needle}\([0-9][0-9]*\).*/\1/p" <<<"$STATS")
  if [[ -z "$value" || "$RESP" != *"\\n${series} ${value}\\n"* ]]; then
    echo "obs-smoke: stats has ${needle}${value}, the exposition no \"${series} ${value}\"" >&2
    echo "obs-smoke: stats: $STATS" >&2
    echo "obs-smoke: metrics: $RESP" >&2
    exit 1
  fi
done

request '{"type":"slowlog","limit":8}'
for needle in '"entries"' '"total_us"' '"spans"' '"wal_append"'; do
  if [[ "$RESP" != *"$needle"* ]]; then
    echo "obs-smoke: slowlog missing $needle" >&2
    echo "obs-smoke: response: $RESP" >&2
    exit 1
  fi
done

halt

# Every fsync policy acks off the commit watermark: under `every=4` each
# of six acked batches has a durable-wait sample, one flush was asked
# for (at the fourth record), and at rest no more than three acknowledged
# records are ahead of the watermark.
boot --fsync every=4 --snapshot-every 0
for i in 1 2 3 4 5 6; do
  request "{\"type\":\"ingest\",\"reports\":[{\"object\":$i,\"t_ms\":0,\"lon\":21.0,\"lat\":37.0,\"speed_mps\":6.0,\"heading_deg\":90.0}]}"
done
request '{"type":"metrics"}'
series='datacron_ingest_durable_wait_latency_us_count 6\n'
if [[ "$RESP" != *"$series"* ]]; then
  echo "obs-smoke: every=4: exposition missing $series" >&2
  echo "obs-smoke: response: $RESP" >&2
  exit 1
fi
request '{"type":"stats"}'
next_seq=$(sed -n 's/.*"next_seq":\([0-9]*\).*/\1/p' <<<"$RESP")
durable_lsn=$(sed -n 's/.*"durable_lsn":\([0-9]*\).*/\1/p' <<<"$RESP")
if [[ "$next_seq" != 6 || $((next_seq - durable_lsn)) -gt 3 ]]; then
  echo "obs-smoke: every=4: next_seq=$next_seq durable_lsn=$durable_lsn, want 6 and a gap <= 3" >&2
  echo "obs-smoke: response: $RESP" >&2
  exit 1
fi
halt

echo "obs-smoke: OK ($FAMILIES metric families, slow log populated)"
