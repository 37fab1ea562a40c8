#!/usr/bin/env bash
# Multi-process smoke test of the horizontal serving tier: trains a tiny
# registry, boots two --role=shard backends and a --role=router front end as
# separate processes, exercises the API with curl, then kill -9's the shard
# that served the traffic and verifies the router reroutes every subsequent
# request with zero client-visible failures.
#
#   tools/smoke/cluster_smoke.sh [path-to-juggler_serve]
#
# Exits non-zero on the first failed check. Used by the cluster-smoke CI job.
set -u -o pipefail

SERVE="${1:-build/examples/juggler_serve}"
WORKDIR="$(mktemp -d)"
MODELS="$WORKDIR/models"
PIDS=()

fail() {
  echo "FAIL: $*" >&2
  for log in "$WORKDIR"/*.log; do
    [ -f "$log" ] && { echo "--- $log ---" >&2; cat "$log" >&2; }
  done
  exit 1
}

cleanup() {
  for pid in ${PIDS[@]+"${PIDS[@]}"}; do
    kill -9 "$pid" 2>/dev/null
  done
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

[ -x "$SERVE" ] || fail "juggler_serve not found at $SERVE"

# --- Train the registry once (REPL mode exits cleanly on stdin EOF).
echo "== training registry =="
"$SERVE" "$MODELS" --train-fast --stdin </dev/null >/dev/null \
  || fail "training run exited non-zero"
ls "$MODELS"/*.model >/dev/null 2>&1 || fail "no model artifacts trained"

# --- Boot two shards on ephemeral RPC ports. The processes must be started
# in this shell (not a command-substitution subshell) so `wait` can reap
# them for their exit codes later.
SHARD_PORT=""
scrape_shard_port() {
  local name="$1" pid="$2"
  SHARD_PORT=""
  for _ in $(seq 1 100); do
    SHARD_PORT="$(sed -n \
      's/.*shard listening on rpc:\/\/[0-9.]*:\([0-9]*\).*/\1/p' \
      "$WORKDIR/$name.log")"
    [ -n "$SHARD_PORT" ] && break
    kill -0 "$pid" 2>/dev/null || fail "$name died during startup"
    sleep 0.1
  done
  [ -n "$SHARD_PORT" ] || fail "$name never logged its port"
}

echo "== booting 2 shards + router =="
"$SERVE" "$MODELS" --role shard --port 0 >"$WORKDIR/shard1.log" 2>&1 &
SHARD1_PID=$!
PIDS+=("$SHARD1_PID")
"$SERVE" "$MODELS" --role shard --port 0 >"$WORKDIR/shard2.log" 2>&1 &
SHARD2_PID=$!
PIDS+=("$SHARD2_PID")
scrape_shard_port shard1 "$SHARD1_PID"
SHARD1_PORT="$SHARD_PORT"
scrape_shard_port shard2 "$SHARD2_PID"
SHARD2_PORT="$SHARD_PORT"
echo "shard1 pid=$SHARD1_PID rpc port=$SHARD1_PORT"
echo "shard2 pid=$SHARD2_PID rpc port=$SHARD2_PORT"

# --- Boot the router over both shards.
"$SERVE" "$MODELS" --role router \
  --shards "127.0.0.1:$SHARD1_PORT,127.0.0.1:$SHARD2_PORT" \
  --port 0 --probe-interval-ms 2000 >"$WORKDIR/router.log" 2>&1 &
ROUTER_PID=$!
PIDS+=("$ROUTER_PID")
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/.*listening on http:\/\/[0-9.]*:\([0-9]*\).*/\1/p' \
    "$WORKDIR/router.log")"
  [ -n "$PORT" ] && break
  kill -0 "$ROUTER_PID" 2>/dev/null || fail "router died during startup"
  sleep 0.1
done
[ -n "$PORT" ] || fail "router never logged its port"
BASE="http://127.0.0.1:$PORT"
echo "router up on $BASE"

BODY='{"app":"svm","params":{"examples":12000,"features":3000,"iterations":5}}'

# --- The standalone API surface, served through the cluster.
[ "$(curl -s "$BASE/healthz")" = "ok" ] || fail "/healthz did not answer ok"

curl -s "$BASE/v1/apps" | grep -q '"svm"' || fail "/v1/apps is missing svm"

curl -s -X POST -d "$BODY" "$BASE/v1/recommend" \
  | grep -q '"cache_hit":false' || fail "cold recommend was not a miss"
curl -s -X POST -d "$BODY" "$BASE/v1/recommend" \
  | grep -q '"cache_hit":true' || fail "warm recommend was not a cache hit"

curl -s -X POST "$BASE/v1/reload" | grep -q '"shards"' \
  || fail "/v1/reload returned no per-shard results"

METRICS="$(curl -s "$BASE/metrics")"
grep -q 'juggler_router_shard_healthy{shard="127.0.0.1:' <<< "$METRICS" \
  || fail "/metrics is missing the per-shard health series"
grep -q 'juggler_router_healthy_shards 2' <<< "$METRICS" \
  || fail "/metrics does not show 2 healthy shards"
# The recommends above were forwarded from the router's event loop (no
# handler-pool hop): the fast-path counter proves the loop path served.
FAST_PATH="$(sed -n 's/^juggler_http_fast_path_total \([0-9]*\)$/\1/p' \
  <<< "$METRICS")"
[ -n "$FAST_PATH" ] && [ "$FAST_PATH" -gt 0 ] \
  || fail "router fast_path_total is '$FAST_PATH', expected > 0"
echo "router fast path: $FAST_PATH request(s) answered from the event loop"

# --- Chaos: kill -9 the shard that owns the warm key, mid-conversation.
# /v1/apps and /v1/reload also bump requests_total, so the owner is the
# shard whose counter moves across a burst of warm recommends, not simply
# the first nonzero one.
shard_requests() {
  curl -s "$BASE/metrics" \
    | sed -n "s/^juggler_router_requests_total{shard=\"$1\"} \([0-9]*\)$/\1/p"
}
ADDR1="127.0.0.1:$SHARD1_PORT"
ADDR2="127.0.0.1:$SHARD2_PORT"
BEFORE1="$(shard_requests "$ADDR1")"
BEFORE2="$(shard_requests "$ADDR2")"
for _ in $(seq 1 5); do
  curl -s -o /dev/null -X POST -d "$BODY" "$BASE/v1/recommend"
done
AFTER1="$(shard_requests "$ADDR1")"
AFTER2="$(shard_requests "$ADDR2")"
OWNER_ADDR=""
[ "$AFTER1" -gt "$BEFORE1" ] && OWNER_ADDR="$ADDR1"
[ "$AFTER2" -gt "$BEFORE2" ] && OWNER_ADDR="$ADDR2"
[ -n "$OWNER_ADDR" ] || fail "could not identify the owning shard"
OWNER_PORT="${OWNER_ADDR##*:}"
if [ "$OWNER_PORT" = "$SHARD1_PORT" ]; then
  OWNER_PID=$SHARD1_PID
else
  OWNER_PID=$SHARD2_PID
fi
echo "== killing owner shard $OWNER_ADDR (pid $OWNER_PID) =="
kill -9 "$OWNER_PID" || fail "could not kill the owner shard"

# Every request after the kill must still answer 200: the first one eats the
# transport failure and reroutes, the rest route to the survivor.
for i in $(seq 1 30); do
  CODE="$(curl -s -o /dev/null -w '%{http_code}' --max-time 10 \
    -X POST -d "$BODY" "$BASE/v1/recommend")"
  [ "$CODE" = "200" ] || fail "request $i after shard kill got $CODE, not 200"
done
echo "30/30 requests answered 200 after the kill"

# The router noticed: at least one reroute (the probe cadence is a slow 2s
# precisely so the first post-kill request hits the dead owner and has to
# fail over, rather than the prober winning the race), and the health gauge
# drops once the prober does catch up.
METRICS="$(curl -s "$BASE/metrics")"
REROUTES="$(sed -n 's/^juggler_router_reroutes_total \([0-9]*\)$/\1/p' \
  <<< "$METRICS")"
[ -n "$REROUTES" ] && [ "$REROUTES" -ge 1 ] \
  || fail "reroutes_total is '$REROUTES', expected >= 1"
HEALTHY=""
for _ in $(seq 1 100); do
  HEALTHY="$(curl -s "$BASE/metrics" \
    | sed -n 's/^juggler_router_healthy_shards \([0-9]*\)$/\1/p')"
  [ "$HEALTHY" = "1" ] && break
  sleep 0.1
done
[ "$HEALTHY" = "1" ] || fail "healthy_shards is '$HEALTHY', expected 1"
[ "$(curl -s "$BASE/healthz")" = "ok" ] \
  || fail "/healthz went red with one shard still up"

# --- Clean shutdown: SIGTERM exits 0 and prints the stats summaries.
echo "== shutdown =="
kill -TERM "$ROUTER_PID"
for _ in $(seq 1 100); do
  kill -0 "$ROUTER_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$ROUTER_PID" 2>/dev/null && fail "router did not exit on SIGTERM"
wait "$ROUTER_PID"
RC=$?
[ "$RC" -eq 0 ] || fail "router exited with code $RC on SIGTERM"
grep -q "router stats: reroutes" "$WORKDIR/router.log" \
  || fail "router printed no stats summary"
grep -Eq "shard 127.0.0.1:$OWNER_PORT: down" "$WORKDIR/router.log" \
  || fail "router summary does not show the killed shard as down"

if [ "$OWNER_PID" = "$SHARD1_PID" ]; then
  SURVIVOR_PID=$SHARD2_PID; SURVIVOR_LOG="$WORKDIR/shard2.log"
else
  SURVIVOR_PID=$SHARD1_PID; SURVIVOR_LOG="$WORKDIR/shard1.log"
fi
kill -TERM "$SURVIVOR_PID"
for _ in $(seq 1 100); do
  kill -0 "$SURVIVOR_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$SURVIVOR_PID" 2>/dev/null && fail "shard did not exit on SIGTERM"
wait "$SURVIVOR_PID"
RC=$?
[ "$RC" -eq 0 ] || fail "shard exited with code $RC on SIGTERM"
grep -q "rpc stats:" "$SURVIVOR_LOG" || fail "shard printed no rpc stats"
grep -q "registry:" "$SURVIVOR_LOG" || fail "shard printed no registry stats"

PIDS=()
echo "PASS"
