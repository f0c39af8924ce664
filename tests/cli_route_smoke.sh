#!/usr/bin/env bash
# End-to-end smoke test for the partitioned serving CLI (DESIGN.md §6.7):
#   mbrec shard-plan -> 2x `mbrec serve --plan --shard` -> mbrec route ->
#   query-remote through the router (compared line-for-line against a
#   single-node `mbrec serve` over the full graph) -> metrics (one shard
#   RPC per routed read) -> direct queries (only the home shard answers)
#   -> drain.
# Run by ctest as `cli_route_smoke` (labels: cli_serve coord). $MBREC points
# at the built binary; $1 is a graph snapshot from `mbrec save-graph`, $2 a
# landmark index from `mbrec landmarks` over the same graph.
set -u

MBREC="${MBREC:?set MBREC to the mbrec binary}"
SNAPSHOT="${1:?usage: cli_route_smoke.sh <snapshot.bin> <index.bin>}"
INDEX="${2:?usage: cli_route_smoke.sh <snapshot.bin> <index.bin>}"
WORK="$(mktemp -d)"
PIDS=()
trap 'for p in "${PIDS[@]}"; do kill "$p" 2>/dev/null; done; rm -rf "$WORK"' EXIT

# Label-filtered runs (tools/check.sh sanitizer matrices select this test
# via -L coord) skip the cli_save_graph/cli_landmarks dependencies, so
# build the snapshot and index ourselves when they are not already there.
if [ ! -f "$SNAPSHOT" ] || [ ! -f "$INDEX" ]; then
  "$MBREC" generate --dataset twitter --nodes 1500 --out "$WORK/graph.bin" \
    || { echo "generate failed"; exit 1; }
  "$MBREC" save-graph --graph "$WORK/graph.bin" --out "$WORK/snap.bin" \
    || { echo "save-graph failed"; exit 1; }
  "$MBREC" landmarks --graph "$WORK/graph.bin" --count 20 \
    --out "$WORK/index.bin" \
    || { echo "landmarks failed"; exit 1; }
  SNAPSHOT="$WORK/snap.bin"
  INDEX="$WORK/index.bin"
fi

# Wait for "listening on HOST:PORT" in $1, echo the port.
wait_port() {
  local log="$1" pid="$2" port=""
  for _ in $(seq 1 150); do
    port="$(sed -n 's/^listening on [0-9.]*:\([0-9]*\)$/\1/p' "$log")"
    [ -n "$port" ] && { echo "$port"; return 0; }
    kill -0 "$pid" 2>/dev/null || { echo "process died: $log" >&2; cat "$log" >&2; return 1; }
    sleep 0.1
  done
  echo "never announced a port: $log" >&2; cat "$log" >&2; return 1
}

"$MBREC" shard-plan --graph "$SNAPSHOT" --shards 2 --strategy Community-LPA \
  --halo-depth 1 --out "$WORK/plan.bin" \
  || { echo "shard-plan failed"; exit 1; }

for s in 0 1; do
  "$MBREC" serve --graph "$SNAPSHOT" --index "$INDEX" \
    --plan "$WORK/plan.bin" --shard "$s" --port 0 \
    >"$WORK/shard$s.log" 2>&1 &
  PIDS+=($!)
done
P0="$(wait_port "$WORK/shard0.log" "${PIDS[0]}")" || exit 1
P1="$(wait_port "$WORK/shard1.log" "${PIDS[1]}")" || exit 1

# No periodic STATS rollup: its shard RPCs would count in the fanout.
"$MBREC" route --plan "$WORK/plan.bin" \
  --endpoints "127.0.0.1:$P0,127.0.0.1:$P1" --port 0 --stats-interval-s 0 \
  >"$WORK/route.log" 2>&1 &
ROUTE_PID=$!
PIDS+=("$ROUTE_PID")
RPORT="$(wait_port "$WORK/route.log" "$ROUTE_PID")" || exit 1

# Single-node reference over the same snapshot + index.
"$MBREC" serve --graph "$SNAPSHOT" --index "$INDEX" --port 0 \
  >"$WORK/single.log" 2>&1 &
SINGLE_PID=$!
PIDS+=("$SINGLE_PID")
SPORT="$(wait_port "$WORK/single.log" "$SINGLE_PID")" || exit 1

# Routed answers must be line-identical (same ids, same score text) to the
# single-node server for a panel of users, exclusions included.
for user in 3 7 42 101 200; do
  "$MBREC" query-remote --port "$RPORT" --user "$user" --topic technology \
    --top 8 | grep '^  ' >"$WORK/routed.txt" \
    || { echo "routed query failed (user $user)"; cat "$WORK/route.log"; exit 1; }
  "$MBREC" query-remote --port "$SPORT" --user "$user" --topic technology \
    --top 8 | grep '^  ' >"$WORK/single.txt" \
    || { echo "single-node query failed (user $user)"; exit 1; }
  diff -u "$WORK/single.txt" "$WORK/routed.txt" \
    || { echo "routed output diverged from single-node (user $user)"; exit 1; }
done
"$MBREC" query-remote --port "$RPORT" --user 7 --topic technology --top 8 \
  --deadline-ms 10000 --exclude 1,2,3 >/dev/null \
  || { echo "routed query with v2 fields failed"; cat "$WORK/route.log"; exit 1; }

# The router's metrics op must expose the mbr_coord_* series, with the
# fanout actually counted.
"$MBREC" metrics --port "$RPORT" >"$WORK/metrics.txt" \
  || { echo "router metrics failed"; cat "$WORK/route.log"; exit 1; }
for want in \
  '^# TYPE mbr_coord_requests_total counter$' \
  '^mbr_coord_fanout_total [1-9]' \
  '^mbr_coord_partial_total 0$'; do
  grep -q "$want" "$WORK/metrics.txt" \
    || { echo "router metrics missing: $want"; cat "$WORK/metrics.txt"; exit 1; }
done
# The router only forwards: one shard RPC per routed read.
REQUESTS="$(sed -n 's/^mbr_coord_requests_total \([0-9]*\)$/\1/p' "$WORK/metrics.txt")"
FANOUT="$(sed -n 's/^mbr_coord_fanout_total \([0-9]*\)$/\1/p' "$WORK/metrics.txt")"
[ -n "$REQUESTS" ] && [ "$FANOUT" = "$REQUESTS" ] \
  || { echo "fanout $FANOUT != requests $REQUESTS"; cat "$WORK/metrics.txt"; exit 1; }

# Asked directly, only user 3's home shard answers; the other refuses.
ANSWERED=0
for p in "$P0" "$P1"; do
  if "$MBREC" query-remote --port "$p" --user 3 --topic technology --top 8 \
    >"$WORK/direct.txt" 2>&1; then
    ANSWERED=$((ANSWERED + 1))
  elif ! grep -q 'not homed on shard' "$WORK/direct.txt"; then
    echo "shard on port $p failed user 3 without a refusal:"; cat "$WORK/direct.txt"; exit 1
  fi
done
[ "$ANSWERED" = 1 ] \
  || { echo "user 3 answered directly by $ANSWERED shards, want exactly 1"; exit 1; }

# Drain the router, then the shards and the reference. Each must exit 0.
"$MBREC" shutdown-remote --port "$RPORT" \
  || { echo "router shutdown failed"; cat "$WORK/route.log"; exit 1; }
"$MBREC" shutdown-remote --port "$SPORT" || exit 1
"$MBREC" shutdown-remote --port "$P0" || exit 1
"$MBREC" shutdown-remote --port "$P1" || exit 1
for p in "${PIDS[@]}"; do
  for _ in $(seq 1 150); do
    kill -0 "$p" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$p" 2>/dev/null; then
    echo "pid $p failed to drain"; cat "$WORK"/*.log; exit 1
  fi
  wait "$p" || { echo "pid $p exited nonzero"; cat "$WORK"/*.log; exit 1; }
done

grep -q '^router stopped$' "$WORK/route.log" \
  || { echo "missing router drain line:"; cat "$WORK/route.log"; exit 1; }
echo "route smoke OK (router port $RPORT over shards $P0/$P1)"
