#!/usr/bin/env bash
# "Shoot the server": launches a real multi-process sharded parameter
# server (`--mode ps`) on localhost — every rank is both a worker and a
# shard host (S = P, co-located shards) — then SIGKILLs one shard host
# mid-run. The survivors must detect the death through their sockets,
# remap the dead host's shard onto the shrunken membership, and finish
# training on the remaining ranks.
#
# Usage:
#   scripts/run_ps_cluster.sh [P] [EPOCHS] [KILL_RANK]
#
#   P          number of worker/shard-host processes  (default 4)
#   EPOCHS     training epochs                        (default 8)
#   KILL_RANK  shard host to SIGKILL mid-run          (default P-1)
#
# Exits non-zero unless every survivor finishes all epochs, reports the
# shrunken membership, and reports the bulk-sync PS discipline.
#
# The kill is timed by progress, not by the clock: every rank runs with
# GTOPK_FT_TRACE=1, which makes it log "rank R finished epoch E" on stderr
# as each epoch completes, and the victim dies as soon as its own first
# epoch line appears — mid-run however fast or slow the host is.
set -euo pipefail
cd "$(dirname "$0")/.."

P="${1:-4}"
EPOCHS="${2:-8}"
KILL_RANK="${3:-$((P - 1))}"

echo "==> building the gtopk binary (offline)"
cargo build -q --offline -p gtopk-cli

BIN=target/debug/gtopk
DIR="$(mktemp -d "${TMPDIR:-/tmp}/gtopk-ps-XXXXXX")"
trap 'kill ${PIDS[@]:-} 2>/dev/null || true; rm -rf "$DIR"' EXIT

echo "==> launching $P ranks, $P co-located shards (rendezvous dir: $DIR)"
PIDS=()
for ((r = 0; r < P; r++)); do
  GTOPK_FT_TRACE=1 "$BIN" train \
    --transport tcp --rank "$r" --rendezvous "$DIR" \
    --workers "$P" --model mlp --epochs "$EPOCHS" \
    --batch 4 --density 0.05 \
    --mode ps --shards "$P" \
    >"$DIR/rank-$r.out" 2>&1 &
  PIDS[r]=$!
done

# Wait until the victim has finished its first epoch of the push/pull
# loop, then kill it — with S = P it hosts shard KILL_RANK, so its death
# takes a server shard down with it, not just a worker.
VICTIM_LOG="$DIR/rank-$KILL_RANK.out"
for ((tick = 0; tick < 6000; tick++)); do
  grep -q "rank $KILL_RANK finished epoch 1\b" "$VICTIM_LOG" 2>/dev/null && break
  if ! kill -0 "${PIDS[KILL_RANK]}" 2>/dev/null; then
    echo "!! shard host $KILL_RANK exited before finishing an epoch:"
    cat "$VICTIM_LOG"
    exit 1
  fi
  sleep 0.01
done
if ! grep -q "rank $KILL_RANK finished epoch 1\b" "$VICTIM_LOG" 2>/dev/null; then
  echo "!! shard host $KILL_RANK reported no finished epoch within 60 s"
  exit 1
fi
echo "==> SIGKILL shard host $KILL_RANK (pid ${PIDS[KILL_RANK]}) after its first epoch"
kill -9 "${PIDS[KILL_RANK]}" 2>/dev/null || true
wait "${PIDS[KILL_RANK]}" 2>/dev/null || true

status=0
for ((r = 0; r < P; r++)); do
  [[ "$r" == "$KILL_RANK" ]] && continue
  if ! wait "${PIDS[r]}"; then
    echo "!! rank $r failed:"
    cat "$DIR/rank-$r.out"
    status=1
  fi
done

echo "==> survivor reports"
for ((r = 0; r < P; r++)); do
  [[ "$r" == "$KILL_RANK" ]] && continue
  echo "---- rank $r"
  cat "$DIR/rank-$r.out"
  if ! grep -q "parameter server: $P shard(s), bulk-sync" "$DIR/rank-$r.out"; then
    echo "!! rank $r did not run the bulk-sync parameter server"
    status=1
  fi
  if ! grep -q "$((P - 1))/$P ranks survived" "$DIR/rank-$r.out"; then
    echo "!! rank $r did not report the shrunken membership"
    status=1
  fi
done

if [[ "$status" == 0 ]]; then
  echo "==> OK: shard host died; survivors remapped the shard and finished"
else
  echo "==> FAILED"
fi
exit "$status"
