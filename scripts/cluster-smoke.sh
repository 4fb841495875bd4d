#!/usr/bin/env bash
# Cluster smoke: popcoord fronting two popserved workers must stream output
# byte-identical to a single worker running the same spec — including when
# one worker is kill -9'd mid-shard and the coordinator fails its replicas
# over to the survivor. Used by `make cluster-smoke` and scripts/check.sh.
#
#   1. ground truth: the spec through one popserved, no cluster
#   2. boot worker A (healthy) and worker B (stream failpoint: 300ms per
#      record, so its shards are reliably in flight when we shoot it)
#   3. boot popcoord over both, check registration and cluster health
#   4. POST the job, kill -9 worker B mid-stream, and cmp the merged
#      NDJSON against the single-node bytes
#   5. the re-dispatch must show up in the coordinator's metrics
set -euo pipefail
cd "$(dirname "$0")/.."

command -v curl >/dev/null || { echo "cluster-smoke: curl required" >&2; exit 2; }

. scripts/lib.sh

go build -o "$tmp/popserved" ./cmd/popserved
go build -o "$tmp/popcoord" ./cmd/popcoord

spec='{"protocol":"exactmajority","n":2000,"seed":42,"replicas":12,"gap":2}'

start "$tmp/solo.log" "$tmp/popserved" -addr 127.0.0.1:0
curl -fsS -d "$spec" "$base/v1/simulate" > "$tmp/want.ndjson"
[ "$(wc -l < "$tmp/want.ndjson")" -eq 12 ] \
    || { echo "cluster-smoke: bad single-node ground truth" >&2; cat "$tmp/want.ndjson" >&2; exit 1; }

start "$tmp/w1.log" "$tmp/popserved" -addr 127.0.0.1:0
w1=$base
start "$tmp/w2.log" "$tmp/popserved" -addr 127.0.0.1:0 \
    -failpoints 'serve/stream=sleep(d=300ms)'
w2=$base w2_pid=$last_pid

start "$tmp/coord.log" "$tmp/popcoord" -addr 127.0.0.1:0 -workers "$w1,$w2" \
    -shard-size 3 -client-retries 0 -probe-interval 200ms -v
coord=$base

curl -fsS "$coord/healthz" | grep -q '"workers_live":2' \
    || { echo "cluster-smoke: cluster health does not show 2 live workers" >&2; exit 1; }
curl -fsS "$coord/v1/workers" | grep -qF "$w2" \
    || { echo "cluster-smoke: worker listing is missing $w2" >&2; exit 1; }

# While worker B is crawling through its shard, its /healthz must still
# answer instantly — liveness bypasses the job pipeline entirely.
curl -fsS -d "$spec" "$coord/v1/jobs" > "$tmp/got.ndjson" &
curl_pid=$!
sleep 0.7
curl -fsS --max-time 2 "$w2/healthz" | grep -q '"status":"ok"' \
    || { echo "cluster-smoke: busy worker's /healthz did not answer" >&2; exit 1; }

disown "$w2_pid" # keep bash from reporting the kill -9
kill -9 "$w2_pid"
wait "$curl_pid" \
    || { echo "cluster-smoke: job failed after worker kill" >&2; cat "$tmp/coord.log" >&2; exit 1; }

cmp "$tmp/want.ndjson" "$tmp/got.ndjson" || {
    echo "cluster-smoke: merged cluster output differs from single-node bytes" >&2
    diff "$tmp/want.ndjson" "$tmp/got.ndjson" >&2 || true
    cat "$tmp/coord.log" >&2
    exit 1
}

curl -fsS "$coord/metrics" | grep -Eq '"shards_redispatched": [1-9]' || {
    echo "cluster-smoke: no shard was re-dispatched — worker B died too late to matter" >&2
    cat "$tmp/coord.log" >&2
    exit 1
}

echo "cluster-smoke: OK (12 replicas byte-identical across worker kill -9)"
