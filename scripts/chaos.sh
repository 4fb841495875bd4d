#!/usr/bin/env bash
# Chaos gate: inject crashes at every layer of the serving stack and prove
# the recovery machinery reproduces the fault-free output byte for byte.
#
#   scripts/chaos.sh
#
#   1. replica crashes, local: POPKIT_FAILPOINTS panics/errors inside replica
#      bodies; popsim -retries re-runs each from its own split seed — output
#      must equal the fault-free stream, at any -workers count
#   2. process kill, server: kill -9 popserved mid-job; a restarted server
#      resumes the job from its on-disk journal — the re-POSTed stream must
#      equal the fault-free stream
#   3. connection cut, wire: the serve/stream failpoint severs the HTTP
#      stream mid-flight; popsim -server's retrying client reconnects,
#      resumes after the last delivered replica, and stdout must equal the
#      fault-free stream
#
# Binaries are built -race so the recovery paths are also race-checked.
# Needs curl and jq (both available in the dev container).
set -euo pipefail
cd "$(dirname "$0")/.."

command -v curl >/dev/null || { echo "chaos: curl required" >&2; exit 2; }
command -v jq   >/dev/null || { echo "chaos: jq required" >&2; exit 2; }

. scripts/lib.sh

echo "== build (-race) =="
go build -race -o "$tmp/popsim" ./cmd/popsim
go build -race -o "$tmp/popserved" ./cmd/popserved

echo "== phase 1: replica crashes recovered by deterministic retry =="
sim="$tmp/popsim -p exactmajority -n 50000 -seed 42 -replicas 8 -gap 1 -ndjson"
$sim > "$tmp/base1.ndjson"
POPKIT_FAILPOINTS='fleet/replica=panic(times=6)' $sim -retries 8 > "$tmp/p1a.ndjson"
cmp "$tmp/base1.ndjson" "$tmp/p1a.ndjson" \
    || { echo "chaos: panic-retry output diverges" >&2; exit 1; }
POPKIT_FAILPOINTS='fleet/replica=error(p=0.3,seed=13)' $sim -retries 12 > "$tmp/p1b.ndjson"
cmp "$tmp/base1.ndjson" "$tmp/p1b.ndjson" \
    || { echo "chaos: error-retry output diverges" >&2; exit 1; }
POPKIT_FAILPOINTS='fleet/replica=panic(p=0.3,seed=7)' $sim -retries 12 -workers 4 > "$tmp/p1c.ndjson"
cmp "$tmp/base1.ndjson" "$tmp/p1c.ndjson" \
    || { echo "chaos: 4-worker faulted output diverges" >&2; exit 1; }
echo "   byte-identical under panics and injected errors ($(wc -c < "$tmp/base1.ndjson") bytes)"

echo "== phase 2: kill -9 mid-job, journal resume across restart =="
spec='{"protocol":"exactmajority","n":500000,"seed":42,"replicas":6,"gap":1,"job_id":"k1"}'
"$tmp/popsim" -p exactmajority -n 500000 -seed 42 -replicas 6 -gap 1 -ndjson > "$tmp/base2.ndjson"
jdir="$tmp/journals"
start "$tmp/srv2a.log" "$tmp/popserved" -addr 127.0.0.1:0 -journal "$jdir" -workers 1 -job-timeout 120s
curl -s --max-time 120 -d "$spec" "$base/v1/simulate" > "$tmp/cut.ndjson" &
curl_pid=$!
# Wait for durable progress (header + ≥2 records), then murder the server.
for _ in $(seq 1 600); do
    [ -f "$jdir/k1.ndjson" ] && [ "$(wc -l < "$jdir/k1.ndjson")" -ge 3 ] && break
    sleep 0.05
done
[ -f "$jdir/k1.ndjson" ] || { echo "chaos: journal never appeared" >&2; exit 1; }
kill -9 "$last_pid"
wait "$curl_pid" 2>/dev/null || true
wait "$last_pid" 2>/dev/null || true
journaled=$(($(wc -l < "$jdir/k1.ndjson") - 1))
echo "   killed popserved with $journaled/6 replicas journaled"

start "$tmp/srv2b.log" "$tmp/popserved" -addr 127.0.0.1:0 -journal "$jdir" -workers 1 -job-timeout 120s
curl -fsS --max-time 120 -d "$spec" "$base/v1/simulate" > "$tmp/resumed.ndjson"
cmp "$tmp/base2.ndjson" "$tmp/resumed.ndjson" \
    || { echo "chaos: resumed stream diverges from fault-free run" >&2; exit 1; }
curl -fsS "$base/metrics" | jq -e '.jobs_resumed >= 1' >/dev/null \
    || { echo "chaos: restarted server did not count a resume" >&2; exit 1; }
stop 2>/dev/null || true
echo "   byte-identical after kill -9 + restart ($(wc -c < "$tmp/resumed.ndjson") bytes)"

echo "== phase 3: mid-stream connection cut, retrying client resumes =="
start "$tmp/srv3.log" "$tmp/popserved" -addr 127.0.0.1:0 -journal "$tmp/journals3" -workers 1 -job-timeout 120s \
    -failpoints 'serve/stream=panic(after=2,times=1)'
"$tmp/popsim" -p exactmajority -n 500000 -seed 42 -replicas 6 -gap 1 -ndjson \
    -server "$base" -job-id c1 -retries 8 > "$tmp/client.ndjson" 2> "$tmp/client.log"
sed 's/^/   popsim: /' "$tmp/client.log"
grep -q 'retrying' "$tmp/client.log" \
    || { echo "chaos: stream was never cut — failpoint did not fire" >&2; exit 1; }
cmp "$tmp/base2.ndjson" "$tmp/client.ndjson" \
    || { echo "chaos: client-recovered stream diverges" >&2; exit 1; }
stop 2>/dev/null || true
echo "   byte-identical across a severed connection"

echo "chaos: OK"
