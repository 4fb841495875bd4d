#!/usr/bin/env bash
# QoS smoke: prove the admission-control layer's core promises end to end.
#
#   1. isolation — while one tenant floods the server with whale-class jobs,
#      another tenant's interactive jobs are all admitted (zero 429s), finish
#      within a latency bound, and stream bytes identical to `popsim -ndjson`
#      (scheduling must never leak into output);
#   2. degradation — the whale concurrency cap keeps at most one whale
#      running (workers−1 with 2 workers), which is what frees the second
#      worker for the interactive lane;
#   3. accounting — per-tenant admits land in /metrics, JSON and Prometheus;
#   4. admission — with -cost-budget, a predictably hopeless job is turned
#      away with a structured 413 naming the tenant, class, predicted cost
#      and reason, while cheap work still flows.
#
# Needs curl and jq. Used by `make qos-smoke` and scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

command -v curl >/dev/null || { echo "qos-smoke: curl required" >&2; exit 2; }
command -v jq   >/dev/null || { echo "qos-smoke: jq required" >&2; exit 2; }

. scripts/lib.sh

echo "== build =="
go build -o "$tmp/popserved" ./cmd/popserved
go build -o "$tmp/popsim" ./cmd/popsim

# The interactive probe: milliseconds of real work, fixed seed so every run
# must be byte-identical, and small enough that it stays interactive-classed
# even after the self-correcting EWMA scales predictions up under load. The
# whale: coalescence at n=1e7 prices at days of serial work under the
# paper's Θ(n) round bound (the grid charges for interactions, leapt ones
# included), so the model classes it whale — while the aggregate kernel the
# engine actually selects at this n leaps each replica to done fast enough
# for the smoke to stay quick and drain cleanly.
interactive='{"protocol":"exactmajority","n":400,"seed":7,"replicas":2,"gap":2}'
whale='{"protocol":"coalescence","n":10000000,"seed":99,"replicas":32}'

echo "== baseline: popsim -ndjson bytes for the interactive spec =="
"$tmp/popsim" -p exactmajority -n 400 -seed 7 -replicas 2 -gap 2 -ndjson > "$tmp/want.ndjson"

echo "== phase 1: whale flood vs interactive tenant (2 workers, whale cap 1) =="
start "$tmp/qos.log" "$tmp/popserved" -addr 127.0.0.1:0 -workers 2 -queue 16 -max-n 20000000
whale_pids=()
for i in 1 2 3 4 5 6; do
    curl -s --max-time 120 -H 'X-Popkit-Tenant: megacorp' -d "$whale" \
        "$base/v1/simulate" > "$tmp/whale.$i" &
    whale_pids+=($!)
done
sleep 0.3   # let the flood land before probing

probes=10
for i in $(seq 1 "$probes"); do
    code=$(curl -s --max-time 30 -o "$tmp/probe.$i" -w '%{http_code} %{time_total}' \
        -H 'X-Popkit-Tenant: alice' -d "$interactive" "$base/v1/simulate")
    set -- $code
    [ "$1" = 200 ] || { echo "qos-smoke: interactive probe $i got status $1 during whale flood" >&2; exit 1; }
    echo "$2" >> "$tmp/probe.times"
    cmp -s "$tmp/probe.$i" "$tmp/want.ndjson" \
        || { echo "qos-smoke: probe $i bytes differ from popsim -ndjson under load" >&2; exit 1; }
done
worst=$(sort -g "$tmp/probe.times" | tail -n 1)
awk -v w="$worst" 'BEGIN { exit !(w + 0 < 5.0) }' \
    || { echo "qos-smoke: interactive p100 ${worst}s under whale flood (want < 5s)" >&2; exit 1; }
echo "   $probes/10 interactive probes: all 200, byte-identical, worst ${worst}s"

curl -fsS "$base/metrics" > "$tmp/qos-metrics.json"
jq -e '.qos.whales_running <= 1' "$tmp/qos-metrics.json" >/dev/null \
    || { echo "qos-smoke: whale concurrency cap exceeded" >&2; cat "$tmp/qos-metrics.json" >&2; exit 1; }
jq -e --argjson p "$probes" '.qos.tenants.alice.admitted.interactive == $p' "$tmp/qos-metrics.json" >/dev/null \
    || { echo "qos-smoke: alice's interactive admits not accounted" >&2; cat "$tmp/qos-metrics.json" >&2; exit 1; }
jq -e '.qos.tenants.megacorp.admitted.whale >= 1' "$tmp/qos-metrics.json" >/dev/null \
    || { echo "qos-smoke: megacorp's whale admits not accounted" >&2; cat "$tmp/qos-metrics.json" >&2; exit 1; }
jq -e '(.qos.tenants.alice.rejected // {}) | length == 0' "$tmp/qos-metrics.json" >/dev/null \
    || { echo "qos-smoke: interactive tenant saw rejections during the flood" >&2; cat "$tmp/qos-metrics.json" >&2; exit 1; }
curl -fsS "$base/metrics?format=prom" > "$tmp/qos.prom"
for series in popkit_qos_admitted_total 'tenant="alice"' 'tenant="megacorp"' 'class="whale"'; do
    grep -qF "$series" "$tmp/qos.prom" \
        || { echo "qos-smoke: prom exposition missing $series" >&2; exit 1; }
done
echo "   per-tenant accounting present in JSON and Prometheus metrics"

# Cut the remaining whale streams (client disconnect cancels the jobs) so
# the drain below is quick, then verify it is clean.
kill "${whale_pids[@]}" 2>/dev/null || true
wait "${whale_pids[@]}" 2>/dev/null || true
stop 2>/dev/null || true
grep -q 'drained, bye' "$tmp/qos.log" \
    || { echo "qos-smoke: no clean drain after the flood" >&2; cat "$tmp/qos.log" >&2; exit 1; }

echo "== phase 2: -cost-budget admission (structured 413) =="
start "$tmp/budget.log" "$tmp/popserved" -addr 127.0.0.1:0 -workers 2 -cost-budget 5s -max-n 20000000
code=$(curl -s -o "$tmp/413.json" -w '%{http_code}' \
    -H 'X-Popkit-Tenant: megacorp' -d "$whale" "$base/v1/simulate")
[ "$code" = 413 ] || { echo "qos-smoke: over-budget whale got status $code, want 413" >&2; cat "$tmp/413.json" >&2; exit 1; }
jq -e '.qos.tenant == "megacorp" and .qos.class == "whale"
       and .qos.reason == "over_budget" and .qos.predicted_cost_ms >= 5000' \
    "$tmp/413.json" >/dev/null \
    || { echo "qos-smoke: 413 body is not a structured rejection" >&2; cat "$tmp/413.json" >&2; exit 1; }
curl -fsS -H 'X-Popkit-Tenant: alice' -d "$interactive" "$base/v1/simulate" > "$tmp/cheap.ndjson"
cmp -s "$tmp/cheap.ndjson" "$tmp/want.ndjson" \
    || { echo "qos-smoke: cheap job under budget not byte-identical" >&2; exit 1; }
jq -e '.qos.tenants.megacorp.rejected.over_budget == 1' <(curl -fsS "$base/metrics") >/dev/null \
    || { echo "qos-smoke: over_budget rejection not accounted" >&2; exit 1; }
stop 2>/dev/null || true

echo "qos-smoke: OK"
