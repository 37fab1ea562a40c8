#!/usr/bin/env bash
# End-to-end smoke test of the network serving path: trains a tiny registry,
# boots juggler_serve as an HTTP server, exercises the API with curl
# (including the saturated-queue 503 contract), and verifies clean shutdown
# on SIGTERM and on REPL EOF.
#
#   tools/smoke/http_smoke.sh [path-to-juggler_serve]
#
# Exits non-zero on the first failed check. Used by the http-smoke CI job.
set -u -o pipefail

SERVE="${1:-build/examples/juggler_serve}"
WORKDIR="$(mktemp -d)"
MODELS="$WORKDIR/models"
LOG="$WORKDIR/server.log"
SERVER_PID=""

fail() {
  echo "FAIL: $*" >&2
  [ -f "$LOG" ] && { echo "--- server log ---" >&2; cat "$LOG" >&2; }
  exit 1
}

cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

[ -x "$SERVE" ] || fail "juggler_serve not found at $SERVE"

# --- REPL mode: EOF on stdin is a clean exit that prints the stats summary.
echo "== REPL smoke (trains the registry) =="
REPL_OUT="$("$SERVE" "$MODELS" --train-fast --stdin \
  <<< 'svm 12000 3000')" || fail "REPL run exited non-zero"
grep -q "svm" <<< "$REPL_OUT" || fail "REPL did not answer the svm question"
grep -q "requests" <<< "$REPL_OUT" || fail "REPL exit printed no stats summary"

# --- Numeric flags are parsed whole: a value with trailing bytes or that is
# not a finite number is a usage error, not a prefix or a NaN that slips
# past the range checks. (timeout: a misparse would start serving.)
echo "== rejected flags =="
for BAD in "--port 80abc" "--workers 4x" "--online-error-threshold nan"; do
  # shellcheck disable=SC2086  # BAD is a flag and its value.
  timeout 10 "$SERVE" "$MODELS" $BAD >"$WORKDIR/bad.log" 2>&1
  RC=$?
  [ "$RC" -ne 0 ] && [ "$RC" -ne 124 ] \
    || fail "juggler_serve accepted '$BAD' (exit $RC)"
  grep -q "bad value for" "$WORKDIR/bad.log" \
    || fail "'$BAD' was rejected without naming the bad value"
done

# --- Server mode: deliberately tiny capacity so saturation is reachable:
# one handler thread and a 1-slot handler dispatch queue.
echo "== HTTP smoke =="
"$SERVE" "$MODELS" --port 0 --workers 1 --queue-capacity 1 \
  --eval-delay-ms 400 --handler-threads 1 >"$LOG" 2>&1 &
SERVER_PID=$!

PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/.*listening on http:\/\/[0-9.]*:\([0-9]*\).*/\1/p' "$LOG")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died during startup"
  sleep 0.1
done
[ -n "$PORT" ] || fail "server never logged its port"
BASE="http://127.0.0.1:$PORT"
echo "server up on $BASE"

BODY='{"app":"svm","params":{"examples":12000,"features":3000,"iterations":5}}'

[ "$(curl -s "$BASE/healthz")" = "ok" ] || fail "/healthz did not answer ok"

curl -s "$BASE/v1/apps" | grep -q '"svm"' || fail "/v1/apps is missing svm"

# Cold ask evaluates the model inline on the event loop (slowed by
# --eval-delay-ms)...
curl -s -X POST -d "$BODY" "$BASE/v1/recommend" \
  | grep -q '"cache_hit":false' || fail "cold recommend was not a miss"
# ...and the repeat is a warm cache hit.
curl -s -X POST -d "$BODY" "$BASE/v1/recommend" \
  | grep -q '"cache_hit":true' || fail "warm recommend was not a cache hit"

# (Capture first: `curl | grep -q` would SIGPIPE curl under pipefail.)
METRICS="$(curl -s "$BASE/metrics")" || fail "/metrics did not answer"
grep -q 'juggler_requests_total{app="svm"}' <<< "$METRICS" \
  || fail "/metrics is missing the per-app series"

# Saturation: requests with bodies up to 4 KiB (kInlineBodyBytes) are
# answered on the event loop and never queue, but larger ones take the
# handler pool — 1 handler thread + 1 dispatch slot + 400ms evaluations.
# Each batch repeats its one cold question 80 times (~4.6 KB): over the cap,
# yet one evaluation, since a batch answers identical slots once. 8 distinct
# cold batches in parallel must produce at least one immediate 503 — and
# every request must get *some* HTTP answer (shed at the edge, never
# hung/dropped).
echo "== saturation =="
CODES=""
CURL_PIDS=()
for i in $(seq 1 8); do
  SLOT="{\"app\":\"svm\",\"params\":{\"examples\":$((20000 + i)),\"features\":4000}}"
  Q="{\"requests\":[$SLOT$(printf ",$SLOT%.0s" $(seq 2 80))]}"
  [ "${#Q}" -gt 4096 ] || fail "saturation batch is not over the inline cap"
  curl -s -o /dev/null -w '%{http_code}\n' --max-time 20 \
    -X POST -d "$Q" "$BASE/v1/recommend" >>"$WORKDIR/codes.txt" &
  CURL_PIDS+=("$!")
done
wait "${CURL_PIDS[@]}"  # NOT a bare `wait` — that would block on the server.
CODES="$(cat "$WORKDIR/codes.txt")"
[ "$(wc -l < "$WORKDIR/codes.txt")" -eq 8 ] || fail "a request got no answer"
grep -q '^503$' <<< "$CODES" || fail "saturation produced no 503 (codes: $(tr '\n' ' ' <<< "$CODES"))"
grep -Eqv '^(200|503)$' <<< "$CODES" && fail "unexpected status (codes: $(tr '\n' ' ' <<< "$CODES"))"
echo "status codes: $(sort "$WORKDIR/codes.txt" | uniq -c | tr -s ' \n' ' ')"

# --- Clean shutdown: SIGTERM exits 0 and prints both stats summaries.
kill -TERM "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  fail "server did not exit within 10s of SIGTERM"
fi
wait "$SERVER_PID"
RC=$?
SERVER_PID=""
[ "$RC" -eq 0 ] || fail "server exited with code $RC on SIGTERM"
grep -q "shutting down" "$LOG" || fail "no shutdown log line"
grep -q "http stats:" "$LOG" || fail "no http stats line on shutdown"
grep -Eq '^ +svm +requests' "$LOG" || fail "no per-app stats line on shutdown"

echo "PASS"
