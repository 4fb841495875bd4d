#!/usr/bin/env bash
# Load-test popserved end to end:
#
#   scripts/loadtest.sh [CONCURRENCY]
#
#   1. liveness + protocol listing
#   2. CONCURRENCY (default 32) concurrent POST /v1/simulate requests, every
#      response validated as complete, converged NDJSON
#   3. metrics sanity: jobs_accepted covers the burst, nothing failed
#   4. queue backpressure: a 1-worker/1-slot server under long jobs answers
#      429 with a computed integer Retry-After, and honoring the hint
#      eventually gets a job accepted
#   5. determinism across the network boundary: a fixed-seed HTTP stream is
#      byte-identical to `popsim -ndjson` with the same spec
#   6. graceful drain: SIGTERM with a stream in flight still completes it
#   7. hot cache: CONCURRENCY identical POSTs against a store-backed server
#      collapse to exactly one fleet execution (single-flight + store hits),
#      every response byte-identical
#   8. mixed tenants: while one tenant floods the whale lane, another
#      tenant's burst of interactive jobs sees zero 429s and every stream
#      completes — fair queueing plus the whale concurrency cap in one shot
#
# Needs curl and jq (both available in the dev container).
set -euo pipefail
cd "$(dirname "$0")/.."

CONC="${1:-32}"
command -v curl >/dev/null || { echo "loadtest: curl required" >&2; exit 2; }
command -v jq   >/dev/null || { echo "loadtest: jq required" >&2; exit 2; }

. scripts/lib.sh

echo "== build =="
go build -o "$tmp/popserved" ./cmd/popserved
go build -o "$tmp/popsim" ./cmd/popsim

echo "== phase 1: liveness =="
start "$tmp/main.log" "$tmp/popserved" -addr 127.0.0.1:0
curl -fsS "$base/healthz" | jq -e '.status == "ok"' >/dev/null
curl -fsS "$base/v1/protocols" | jq -e '.protocols | length >= 8' >/dev/null

echo "== phase 2: $CONC concurrent streams =="
pids=()
for i in $(seq 1 "$CONC"); do
    curl -fsS --max-time 60 \
        -d "{\"protocol\":\"exactmajority\",\"n\":2000,\"seed\":$i,\"replicas\":2,\"gap\":1}" \
        "$base/v1/simulate" > "$tmp/stream.$i" &
    pids+=($!)
done
fail=0
for p in "${pids[@]}"; do wait "$p" || fail=1; done
[ "$fail" -eq 0 ] || { echo "loadtest: a concurrent request failed" >&2; exit 1; }
for i in $(seq 1 "$CONC"); do
    jq -es 'length == 2 and all(.converged and .err == null)' "$tmp/stream.$i" >/dev/null \
        || { echo "loadtest: stream $i invalid" >&2; cat "$tmp/stream.$i" >&2; exit 1; }
done
echo "   all $CONC streams complete and converged"

echo "== phase 3: metrics =="
curl -fsS "$base/metrics" > "$tmp/metrics.json"
jq -e --argjson c "$CONC" \
    '.jobs_accepted >= $c and .jobs_completed >= $c and .jobs_failed == 0 and .interactions_total > 0' \
    "$tmp/metrics.json" >/dev/null \
    || { echo "loadtest: metrics inconsistent" >&2; cat "$tmp/metrics.json" >&2; exit 1; }
stop 2>/dev/null || true

echo "== phase 4: queue backpressure (1 worker, 1 slot) =="
start "$tmp/full.log" "$tmp/popserved" -addr 127.0.0.1:0 -workers 1 -queue 1 -job-timeout 8s -drain 2s
# Long jobs occupy the worker and the single queue slot; the burst must
# then see at least one 429 and at least one accepted stream.
for i in 1 2 3 4 5 6; do
    curl -s --max-time 30 -o "$tmp/full.body.$i" -D "$tmp/full.hdr.$i" -w '%{http_code}\n' \
        -d '{"protocol":"exactmajority","n":2000000,"seed":1,"replicas":4,"gap":1}' \
        "$base/v1/simulate" > "$tmp/full.code.$i" &
done
wait $(jobs -p | grep -v "^$last_pid$") 2>/dev/null || true
codes=$(cat "$tmp"/full.code.* | sort | uniq -c)
echo "$codes" | sed 's/^/   /'
grep -q '429' "$tmp"/full.code.* || { echo "loadtest: no 429 under overload" >&2; exit 1; }
grep -q '200' "$tmp"/full.code.* || { echo "loadtest: no stream accepted under overload" >&2; exit 1; }
rejected=$(grep -l 429 "$tmp"/full.code.* | head -n 1)
jq -e '.error | test("queue full")' "${rejected%.code.*}.body.${rejected##*.}" >/dev/null \
    || { echo "loadtest: 429 body lacks queue-full error" >&2; exit 1; }

# The 429 must carry a computed integer Retry-After (queue-depth-scaled,
# jittered — not the old constant), and honoring it must eventually get a
# small job accepted once the backlog drains.
ra=$(awk 'tolower($1)=="retry-after:"{print $2}' "${rejected%.code.*}.hdr.${rejected##*.}" | tr -d '\r')
case "$ra" in
    ''|*[!0-9]*) echo "loadtest: 429 Retry-After is not integer seconds: '$ra'" >&2; exit 1 ;;
esac
[ "$ra" -ge 1 ] && [ "$ra" -le 60 ] \
    || { echo "loadtest: 429 Retry-After out of range: $ra" >&2; exit 1; }
echo "   429 carried Retry-After: ${ra}s; honoring it until accepted"
deadline=$(( $(date +%s) + 60 ))
while :; do
    sleep "$ra"
    code=$(curl -s --max-time 30 -o "$tmp/honor.body" -D "$tmp/honor.hdr" -w '%{http_code}' \
        -d '{"protocol":"leader","n":128,"seed":5,"replicas":1}' "$base/v1/simulate")
    [ "$code" = 200 ] && break
    [ "$code" = 429 ] || { echo "loadtest: unexpected status $code while honoring Retry-After" >&2; exit 1; }
    ra=$(awk 'tolower($1)=="retry-after:"{print $2}' "$tmp/honor.hdr" | tr -d '\r')
    case "$ra" in ''|*[!0-9]*) ra=1 ;; esac
    [ "$(date +%s)" -lt "$deadline" ] || { echo "loadtest: never accepted after honoring Retry-After" >&2; exit 1; }
done
jq -es 'length == 1 and all(.converged)' "$tmp/honor.body" >/dev/null \
    || { echo "loadtest: post-backoff stream invalid" >&2; exit 1; }
echo "   accepted after backoff"
stop 2>/dev/null || true

echo "== phase 5: CLI vs HTTP determinism =="
start "$tmp/det.log" "$tmp/popserved" -addr 127.0.0.1:0
spec='{"protocol":"exactmajority","n":2000,"seed":42,"replicas":4,"gap":1}'
"$tmp/popsim" -p exactmajority -n 2000 -seed 42 -replicas 4 -gap 1 -ndjson > "$tmp/cli.ndjson"
curl -fsS -d "$spec" "$base/v1/simulate" > "$tmp/http.ndjson"
cmp "$tmp/cli.ndjson" "$tmp/http.ndjson" \
    || { echo "loadtest: HTTP stream differs from popsim -ndjson" >&2; exit 1; }
echo "   byte-identical ($(wc -c < "$tmp/cli.ndjson") bytes)"

echo "== phase 6: graceful drain =="
curl -fsS --max-time 30 \
    -d '{"protocol":"exactmajority","n":200000,"seed":9,"replicas":2,"gap":1}' \
    "$base/v1/simulate" > "$tmp/drain.ndjson" &
curl_pid=$!
sleep 0.3
kill -TERM "$last_pid"
wait "$curl_pid" || { echo "loadtest: in-flight stream was cut off by SIGTERM" >&2; exit 1; }
jq -es 'length == 2 and all(.converged)' "$tmp/drain.ndjson" >/dev/null \
    || { echo "loadtest: drained stream incomplete" >&2; cat "$tmp/drain.ndjson" >&2; exit 1; }
wait "$last_pid" || { echo "loadtest: server exited non-zero on drain" >&2; cat "$tmp/det.log" >&2; exit 1; }
grep -q 'drained, bye' "$tmp/det.log" || { echo "loadtest: no clean drain" >&2; exit 1; }

echo "== phase 7: hot cache ($CONC identical POSTs, 1 execution) =="
start "$tmp/cache.log" "$tmp/popserved" -addr 127.0.0.1:0 -store "$tmp/store"
pids=()
for i in $(seq 1 "$CONC"); do
    curl -fsS --max-time 60 \
        -d '{"protocol":"exactmajority","n":2000,"seed":777,"replicas":2,"gap":1}' \
        "$base/v1/simulate" > "$tmp/hot.$i" &
    pids+=($!)
done
fail=0
for p in "${pids[@]}"; do wait "$p" || fail=1; done
[ "$fail" -eq 0 ] || { echo "loadtest: a hot-cache request failed" >&2; exit 1; }
for i in $(seq 2 "$CONC"); do
    cmp -s "$tmp/hot.1" "$tmp/hot.$i" \
        || { echo "loadtest: hot-cache response $i differs from response 1" >&2; exit 1; }
done
curl -fsS "$base/metrics" > "$tmp/cache-metrics.json"
jq -e --argjson c "$CONC" '.jobs_accepted == 1 and .store.hits == $c - 1 and .store.commits == 1' \
    "$tmp/cache-metrics.json" >/dev/null \
    || { echo "loadtest: hot cache did not collapse to one execution" >&2; cat "$tmp/cache-metrics.json" >&2; exit 1; }
echo "   $CONC identical POSTs: 1 job accepted, $((CONC-1)) store hits, all byte-identical"
stop 2>/dev/null || true

echo "== phase 8: mixed tenants (whale flood vs interactive burst) =="
start "$tmp/mix.log" "$tmp/popserved" -addr 127.0.0.1:0 -workers 2 -queue 64
# Whale lane: coalescence at n=1e6 is whale-classed (Θ(n) rounds price at
# hours of serial interactions) but each replica leaps to done in ~0.1s,
# so the flood saturates the whale cap without dragging out the test.
for i in 1 2 3 4; do
    curl -s --max-time 120 -H 'X-Popkit-Tenant: whalecorp' \
        -d '{"protocol":"coalescence","n":1000000,"seed":4242,"replicas":32}' \
        "$base/v1/simulate" > /dev/null &
    mix_pids[$i]=$!
done
sleep 0.3
pids=(); : > "$tmp/mix.codes"
for i in $(seq 1 "$CONC"); do
    { curl -s --max-time 60 -o "$tmp/mix.$i" -w '%{http_code}' \
        -H 'X-Popkit-Tenant: interactive-team' \
        -d "{\"protocol\":\"exactmajority\",\"n\":400,\"seed\":$i,\"replicas\":2,\"gap\":1}" \
        "$base/v1/simulate" >> "$tmp/mix.codes"; echo >> "$tmp/mix.codes"; } &
    pids+=($!)
done
for p in "${pids[@]}"; do wait "$p" || true; done
if grep -qv '^200$' "$tmp/mix.codes"; then
    echo "loadtest: interactive tenant saw non-200s during whale flood:" >&2
    sort "$tmp/mix.codes" | uniq -c >&2
    exit 1
fi
for i in $(seq 1 "$CONC"); do
    jq -es 'length == 2 and all(.converged and .err == null)' "$tmp/mix.$i" >/dev/null \
        || { echo "loadtest: mixed-tenant stream $i invalid" >&2; exit 1; }
done
curl -fsS "$base/metrics" > "$tmp/mix-metrics.json"
jq -e --argjson c "$CONC" '
    (.qos.tenants["interactive-team"].admitted | add) == $c
    and ((.qos.tenants["interactive-team"].rejected // {}) | length) == 0
    and .qos.tenants.whalecorp.admitted.whale >= 1
    and .qos.whales_running <= 1' "$tmp/mix-metrics.json" >/dev/null \
    || { echo "loadtest: mixed-tenant qos accounting wrong" >&2; cat "$tmp/mix-metrics.json" >&2; exit 1; }
echo "   $CONC interactive streams complete with zero rejections under whale flood"
kill "${mix_pids[@]}" 2>/dev/null || true
wait "${mix_pids[@]}" 2>/dev/null || true
stop 2>/dev/null || true

echo "loadtest: OK"
