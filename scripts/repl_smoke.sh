#!/usr/bin/env bash
# Replication smoke test.
#
# Boots a release leader with a throwaway data dir plus one memory-only
# follower tailing it, ingests at the leader, then asserts over the wire
# (plain bash /dev/tcp, no client tooling required) that:
#   - the follower converges and serves the replicated rows,
#   - follower reads are stamped with `leader_epoch` and `applied_lsn`,
#   - writes at the follower bounce with `not_leader` + the leader addr,
#   - the follower's metrics exposition carries the replication gauges,
#   - after a SIGKILL and a restart of the leader on the same data dir
#     and address, plus a new ingest, the follower is in the leader's new
#     epoch and answers with the leader's row counts.
#
# Usage: scripts/repl_smoke.sh   (expects `cargo build --release` done)

set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/datacron-serve
if [[ ! -x "$BIN" ]]; then
  echo "repl-smoke: $BIN not found; run 'cargo build --release' first" >&2
  exit 1
fi

LEADER_LOG=$(mktemp /tmp/repl-smoke-leader.XXXXXX)
FOLLOWER_LOG=$(mktemp /tmp/repl-smoke-follower.XXXXXX)
DATA=$(mktemp -d /tmp/repl-smoke-data.XXXXXX)
LEADER_PID=""
FOLLOWER_PID=""
cleanup() {
  for pid in "$FOLLOWER_PID" "$LEADER_PID"; do
    if [[ -n "$pid" ]]; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$LEADER_LOG" "$FOLLOWER_LOG" "$DATA"
}
trap cleanup EXIT

# Waits for "datacron-server listening on ADDR ..." in $1, echoes ADDR.
await_addr() {
  local log=$1 pid=$2 addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^datacron-server listening on \([0-9.:]*\) .*/\1/p' "$log")
    [[ -n "$addr" ]] && break
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "repl-smoke: server exited during startup:" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [[ -z "$addr" ]]; then
    echo "repl-smoke: server did not report a listen address:" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "$addr"
}

"$BIN" --addr 127.0.0.1:0 --workers 2 --queue 16 --data-dir "$DATA" \
  >"$LEADER_LOG" 2>&1 &
LEADER_PID=$!
LEADER_ADDR=$(await_addr "$LEADER_LOG" "$LEADER_PID")

"$BIN" --addr 127.0.0.1:0 --workers 2 --queue 16 \
  --follow "$LEADER_ADDR" --follower-id smoke-1 --repl-poll-ms 10 \
  >"$FOLLOWER_LOG" 2>&1 &
FOLLOWER_PID=$!
FOLLOWER_ADDR=$(await_addr "$FOLLOWER_LOG" "$FOLLOWER_PID")

# One-shot request against host:port passed as $1; reply lands in RESP.
RESP=""
request() {
  local addr=$1 host port
  host=${addr%:*}
  port=${addr##*:}
  exec 3<>"/dev/tcp/$host/$port"
  printf '%s\n' "$2" >&3
  IFS= read -r RESP <&3
  exec 3<&- 3>&-
  if [[ "$RESP" != *'"ok":true'* && "$RESP" != *'"ok": true'* ]]; then
    echo "repl-smoke: request failed: $2" >&2
    echo "repl-smoke: response: $RESP" >&2
    exit 1
  fi
}

# Two WAL records at the leader; the protocol is one JSON object per
# line, so each batch stays on a single line.
request "$LEADER_ADDR" "$(printf '%s' \
  '{"type":"ingest","reports":[' \
  '{"object":9,"t_ms":0,"lon":21.0,"lat":37.0,"speed_mps":6.0,"heading_deg":90.0},' \
  '{"object":9,"t_ms":10000,"lon":21.01,"lat":37.0,"speed_mps":6.0,"heading_deg":90.0}]}')"
request "$LEADER_ADDR" "$(printf '%s' \
  '{"type":"ingest","reports":[' \
  '{"object":9,"t_ms":20000,"lon":21.02,"lat":37.0,"speed_mps":6.0,"heading_deg":90.0}]}')"

# Follower converges: applied_lsn reaches the leader's two records.
CONVERGED=""
for _ in $(seq 1 100); do
  request "$FOLLOWER_ADDR" '{"type":"repl_status"}'
  if [[ "$RESP" == *'"applied_lsn":2'* || "$RESP" == *'"applied_lsn": 2'* ]]; then
    CONVERGED=1
    break
  fi
  sleep 0.1
done
if [[ -z "$CONVERGED" ]]; then
  echo "repl-smoke: follower never applied both WAL records" >&2
  echo "repl-smoke: last repl_status: $RESP" >&2
  exit 1
fi

# Follower reads serve replicated data, stamped with its position.
request "$FOLLOWER_ADDR" '{"type":"sparql","query":"SELECT ?n WHERE { ?n da:ofMovingObject da:obj/9 }","limit":10}'
for needle in '"leader_epoch"' '"applied_lsn":2' 'da:node/9/'; do
  if [[ "$RESP" != *"$needle"* ]]; then
    echo "repl-smoke: follower read missing $needle" >&2
    echo "repl-smoke: response: $RESP" >&2
    exit 1
  fi
done

# Writes at the follower bounce with a redirect to the leader.
exec 3<>"/dev/tcp/${FOLLOWER_ADDR%:*}/${FOLLOWER_ADDR##*:}"
printf '%s\n' '{"type":"ingest","reports":[{"object":1,"t_ms":0,"lon":21.0,"lat":37.0,"speed_mps":1.0,"heading_deg":0.0}]}' >&3
IFS= read -r RESP <&3
exec 3<&- 3>&-
if [[ "$RESP" != *'not_leader'* || "$RESP" != *"$LEADER_ADDR"* ]]; then
  echo "repl-smoke: follower write did not redirect to leader" >&2
  echo "repl-smoke: response: $RESP" >&2
  exit 1
fi

# Replication gauges in the follower's exposition.
request "$FOLLOWER_ADDR" '{"type":"metrics"}'
for family in \
  'datacron_repl_epoch' \
  'datacron_repl_applied_lsn' \
  'datacron_repl_lag_records' \
  'datacron_repl_frames_applied_total'; do
  if [[ "$RESP" != *"$family"* ]]; then
    echo "repl-smoke: follower exposition missing $family" >&2
    exit 1
  fi
done

# And the leader tracks its fleet.
request "$LEADER_ADDR" '{"type":"metrics"}'
if [[ "$RESP" != *'datacron_repl_followers'* ]]; then
  echo "repl-smoke: leader exposition missing datacron_repl_followers" >&2
  exit 1
fi

# Leader crash and restart: a new epoch, which rebuilds the follower.
request "$FOLLOWER_ADDR" '{"type":"repl_status"}'
OLD_EPOCH=$(grep -o '"epoch":[0-9]*' <<<"$RESP" | cut -d: -f2)
kill -9 "$LEADER_PID"
wait "$LEADER_PID" 2>/dev/null || true
"$BIN" --addr "$LEADER_ADDR" --workers 2 --queue 16 --data-dir "$DATA" \
  >"$LEADER_LOG" 2>&1 &
LEADER_PID=$!
await_addr "$LEADER_LOG" "$LEADER_PID" >/dev/null
request "$LEADER_ADDR" "$(printf '%s' \
  '{"type":"ingest","reports":[' \
  '{"object":10,"t_ms":0,"lon":21.5,"lat":37.0,"speed_mps":6.0,"heading_deg":90.0}]}')"

ALL_ROWS='{"type":"sparql","query":"SELECT ?n ?o WHERE { ?n da:ofMovingObject ?o }","limit":100}'
request "$LEADER_ADDR" "$ALL_ROWS"
LEADER_ROWS=$(grep -o '"row_count":[0-9]*' <<<"$RESP")
REBUILT=""
for _ in $(seq 1 100); do
  request "$FOLLOWER_ADDR" '{"type":"repl_status"}'
  EPOCH=$(grep -o '"epoch":[0-9]*' <<<"$RESP" | cut -d: -f2)
  if [[ "$EPOCH" -gt "$OLD_EPOCH" && "$RESP" == *'"applied_lsn":3,'* ]]; then
    REBUILT=1
    break
  fi
  sleep 0.1
done
if [[ -z "$REBUILT" ]]; then
  echo "repl-smoke: follower never reached the restarted leader's epoch and head" >&2
  echo "repl-smoke: last repl_status: $RESP" >&2
  exit 1
fi
request "$FOLLOWER_ADDR" "$ALL_ROWS"
FOLLOWER_ROWS=$(grep -o '"row_count":[0-9]*' <<<"$RESP")
if [[ -z "$LEADER_ROWS" || "$FOLLOWER_ROWS" != "$LEADER_ROWS" ]]; then
  echo "repl-smoke: follower $FOLLOWER_ROWS, leader $LEADER_ROWS after the restart" >&2
  exit 1
fi

echo "repl-smoke: OK (follower converged, reads stamped, writes redirected, rebuilt after a leader restart)"
