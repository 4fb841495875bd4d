#!/usr/bin/env bash
# Cache smoke: prove the content-addressed result store short-circuits real
# fleet work end to end.
#
#   1. POST the same spec twice: the second response must carry
#      X-Popkit-Cache: hit, be byte-identical, and leave jobs_accepted at 1 —
#      the hit never reaches the queue (popkit_store_* metrics confirm).
#   2. ?meta=1 surfaces the spec hash and cached flag as an opt-in opening
#      record without perturbing the default stream.
#   3. Overlapping sweeps through POST /v1/sweep: the second grid resolves
#      its cached points as hits and fans out only the miss set.
#   4. The store survives a restart: a fresh process over the same -store
#      directory serves the old object as a hit.
#
# Needs curl and jq. Used by `make cache-smoke` and scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

command -v curl >/dev/null || { echo "cache-smoke: curl required" >&2; exit 2; }
command -v jq   >/dev/null || { echo "cache-smoke: jq required" >&2; exit 2; }

. scripts/lib.sh

go build -o "$tmp/popserved" ./cmd/popserved

start "$tmp/log" "$tmp/popserved" -addr 127.0.0.1:0 -store "$tmp/store"
spec='{"protocol":"exactmajority","n":2000,"seed":11,"replicas":4,"gap":1}'

echo "== repeat POST served from the store =="
curl -fsS -D "$tmp/h1" -d "$spec" "$base/v1/simulate" > "$tmp/r1.ndjson"
grep -qi '^x-popkit-cache: miss' "$tmp/h1" \
    || { echo "cache-smoke: first POST not marked miss" >&2; cat "$tmp/h1" >&2; exit 1; }
curl -fsS -D "$tmp/h2" -d "$spec" "$base/v1/simulate" > "$tmp/r2.ndjson"
grep -qi '^x-popkit-cache: hit' "$tmp/h2" \
    || { echo "cache-smoke: repeat POST not marked hit" >&2; cat "$tmp/h2" >&2; exit 1; }
cmp "$tmp/r1.ndjson" "$tmp/r2.ndjson" \
    || { echo "cache-smoke: cached stream not byte-identical" >&2; exit 1; }
curl -fsS "$base/metrics" > "$tmp/m1.json"
jq -e '.jobs_accepted == 1 and .store.hits == 1 and .store.misses >= 1 and .store.commits == 1' \
    "$tmp/m1.json" >/dev/null \
    || { echo "cache-smoke: hit did real fleet work" >&2; cat "$tmp/m1.json" >&2; exit 1; }
curl -fsS "$base/metrics?format=prom" > "$tmp/prom.txt"
grep -q '^popkit_store_hits_total 1$' "$tmp/prom.txt" \
    || { echo "cache-smoke: prom exposition missing popkit_store_hits_total" >&2; cat "$tmp/prom.txt" >&2; exit 1; }
echo "   second POST: hit, byte-identical, jobs_accepted still 1"

echo "== ?meta=1 metadata record =="
curl -fsS -d "$spec" "$base/v1/simulate?meta=1" > "$tmp/meta.ndjson"
head -n 1 "$tmp/meta.ndjson" \
    | jq -e '.meta.cached == true and (.meta.spec_hash | length) == 64' >/dev/null \
    || { echo "cache-smoke: ?meta=1 record wrong" >&2; cat "$tmp/meta.ndjson" >&2; exit 1; }
curl -fsS -d "$spec" "$base/v1/simulate" > "$tmp/nometa.ndjson"
if grep -q '"meta"' "$tmp/nometa.ndjson"; then
    echo "cache-smoke: meta record leaked into the default stream" >&2; exit 1
fi
echo "   meta opt-in reports cached=true with the spec hash"

echo "== overlapping sweep dedupe =="
sweep1='{"base":{"protocol":"leader","n":1024,"replicas":2},"grid":{"seed":[1,2]}}'
sweep2='{"base":{"protocol":"leader","n":1024,"replicas":2},"grid":{"seed":[1,2,3]}}'
curl -fsS -d "$sweep1" "$base/v1/sweep" > "$tmp/s1.ndjson"
tail -n 1 "$tmp/s1.ndjson" | jq -e '.sweep.points == 2 and .sweep.misses == 2' >/dev/null \
    || { echo "cache-smoke: first sweep summary wrong" >&2; cat "$tmp/s1.ndjson" >&2; exit 1; }
curl -fsS -d "$sweep2" "$base/v1/sweep" > "$tmp/s2.ndjson"
tail -n 1 "$tmp/s2.ndjson" | jq -e '.sweep.hits == 2 and .sweep.misses == 1' >/dev/null \
    || { echo "cache-smoke: overlap sweep summary wrong" >&2; cat "$tmp/s2.ndjson" >&2; exit 1; }
head -n 3 "$tmp/s2.ndjson" | jq -es '[.[].cache] == ["hit","hit","miss"]' >/dev/null \
    || { echo "cache-smoke: overlap manifest not hit,hit,miss" >&2; cat "$tmp/s2.ndjson" >&2; exit 1; }
# One repeat job + sweep misses 2 + 1: exactly 4 jobs ever reached the fleet.
curl -fsS "$base/metrics" > "$tmp/m2.json"
jq -e '.jobs_accepted == 4' "$tmp/m2.json" >/dev/null \
    || { echo "cache-smoke: sweep hits did real fleet work" >&2; cat "$tmp/m2.json" >&2; exit 1; }
echo "   overlap sweep: hit,hit,miss — only the miss set ran"

echo "== store survives restart =="
stop
start "$tmp/log2" "$tmp/popserved" -addr 127.0.0.1:0 -store "$tmp/store"
curl -fsS -D "$tmp/h3" -d "$spec" "$base/v1/simulate" > "$tmp/r3.ndjson"
grep -qi '^x-popkit-cache: hit' "$tmp/h3" \
    || { echo "cache-smoke: restarted server missed a persisted object" >&2; cat "$tmp/h3" >&2; exit 1; }
cmp "$tmp/r1.ndjson" "$tmp/r3.ndjson" \
    || { echo "cache-smoke: post-restart stream not byte-identical" >&2; exit 1; }
echo "   restarted server served the persisted object as a hit"

echo "cache-smoke: OK"
