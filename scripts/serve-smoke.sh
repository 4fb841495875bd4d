#!/usr/bin/env bash
# Smoke-test popserved: boot it on a free port, run one small exact-majority
# job through POST /v1/simulate, check the NDJSON stream (the repeat POST is
# a result-store hit), and verify a clean SIGTERM drain. Used by
# `make serve-smoke` and scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

. scripts/lib.sh

go build -o "$tmp/popserved" ./cmd/popserved
go build -o "$tmp/popsim" ./cmd/popsim
# One executor plus a stream failpoint (400ms per record, first job only):
# that pins the single worker on a slow job long enough to prove /healthz
# answers without it.
start "$tmp/log" "$tmp/popserved" -addr 127.0.0.1:0 -pprof -workers 1 -store "$tmp/store" \
    -failpoints 'serve/stream=sleep(d=400ms,times=2)'

curl -fsS "$base/healthz" | grep -q '"status":"ok"'
curl -fsS "$base/v1/protocols" | grep -q '"exactmajority"'

# /healthz bypasses the job queue: while the only executor crawls through
# the failpoint-delayed job, liveness must still answer within the bound
# (cluster coordinators probe this while workers are saturated).
curl -fsS -d '{"protocol":"exactmajority","n":500,"seed":7,"replicas":2,"gap":1}' \
    "$base/v1/simulate" > "$tmp/slow.ndjson" &
slow_pid=$!
sleep 0.2
curl -fsS --max-time 2 "$base/healthz" | grep -q '"status":"ok"' \
    || { echo "serve-smoke: /healthz stalled behind a busy worker" >&2; exit 1; }
wait "$slow_pid"

# The repeat POST is a content-addressed store hit: byte-identical to the
# live run, marked by X-Popkit-Cache, and never re-enqueued.
curl -fsS -D "$tmp/out.hdr" -d '{"protocol":"exactmajority","n":500,"seed":7,"replicas":2,"gap":1}' \
    "$base/v1/simulate" > "$tmp/out.ndjson"
grep -qi '^x-popkit-cache: hit' "$tmp/out.hdr" \
    || { echo "serve-smoke: repeat POST not served from the store" >&2; cat "$tmp/out.hdr" >&2; exit 1; }
cmp "$tmp/slow.ndjson" "$tmp/out.ndjson" \
    || { echo "serve-smoke: cached stream not byte-identical" >&2; exit 1; }
curl -fsS -d '{"protocol":"exactmajority","n":500,"seed":7,"replicas":2,"gap":1}' \
    "$base/v1/simulate?meta=1" > "$tmp/meta.ndjson"
head -n 1 "$tmp/meta.ndjson" | grep -q '"cached":true' \
    || { echo "serve-smoke: ?meta=1 did not report cached:true" >&2; cat "$tmp/meta.ndjson" >&2; exit 1; }

lines=$(wc -l < "$tmp/out.ndjson")
[ "$lines" -eq 2 ] || { echo "serve-smoke: want 2 records, got $lines" >&2; cat "$tmp/out.ndjson" >&2; exit 1; }
if command -v jq >/dev/null 2>&1; then
    jq -es 'length == 2 and all(.converged and .err == null)' "$tmp/out.ndjson" >/dev/null \
        || { echo "serve-smoke: bad records" >&2; cat "$tmp/out.ndjson" >&2; exit 1; }
fi

# Related-work library entry: the same spec through POST /v1/simulate and
# through popsim -ndjson (which runs the identical registry code in-process)
# must stream byte-identical records, for any -workers count.
curl -fsS "$base/v1/protocols" | grep -q '"gsexactmajority"'
curl -fsS -d '{"protocol":"gsexactmajority","n":600,"seed":11,"replicas":2,"gap":1}' \
    "$base/v1/simulate" > "$tmp/gs.http.ndjson"
"$tmp/popsim" -p gsexactmajority -n 600 -gap 1 -seed 11 -replicas 2 -workers 3 -ndjson > "$tmp/gs.cli.ndjson"
cmp "$tmp/gs.http.ndjson" "$tmp/gs.cli.ndjson" \
    || { echo "serve-smoke: gsexactmajority CLI and HTTP streams diverge" >&2; \
         diff "$tmp/gs.http.ndjson" "$tmp/gs.cli.ndjson" >&2 || true; exit 1; }

# Observability surface: JSON metrics, the Prometheus exposition of the
# same registry, and a short CPU profile from the -pprof mount.
# Two jobs reached the queue (the gsexactmajority POST was a store miss);
# the two exactmajority repeats were store hits.
curl -fsS "$base/metrics" | grep -q '"jobs_accepted": 2' \
    || { echo "serve-smoke: JSON metrics missing jobs_accepted" >&2; exit 1; }
curl -fsS "$base/metrics?format=prom" > "$tmp/prom.txt"
grep -q '^popkit_jobs_accepted_total 2$' "$tmp/prom.txt" \
    || { echo "serve-smoke: prom exposition missing popkit_jobs_accepted_total" >&2; cat "$tmp/prom.txt" >&2; exit 1; }
grep -q '^popkit_store_hits_total 2$' "$tmp/prom.txt" \
    || { echo "serve-smoke: prom exposition missing popkit_store_hits_total" >&2; cat "$tmp/prom.txt" >&2; exit 1; }
grep -q '^popkit_http_request_duration_seconds_bucket{endpoint="simulate"' "$tmp/prom.txt" \
    || { echo "serve-smoke: prom exposition missing request-latency histogram" >&2; exit 1; }
curl -fsS "$base/debug/pprof/profile?seconds=1" > "$tmp/cpu.pprof"
[ -s "$tmp/cpu.pprof" ] || { echo "serve-smoke: empty CPU profile from /debug/pprof" >&2; exit 1; }

stop
grep -q 'drained, bye' "$tmp/log" || { echo "serve-smoke: no clean drain" >&2; cat "$tmp/log" >&2; exit 1; }
echo "serve-smoke: OK"
