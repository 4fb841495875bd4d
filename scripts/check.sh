#!/usr/bin/env bash
# Tier-2 gate: vet, formatting, and race-detector runs over the packages
# that execute concurrently (the replica fleet and the simulation engine it
# drives, plus the experiment harness's worker cross-check).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l . )
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test -json (full run: no test may skip) =="
# A test that skips on every run checks nothing. Packages without test files
# emit a package-level skip event with no Test field; only events that name
# a test count.
tmpj=$(mktemp)
go test -count=1 -json ./... > "$tmpj" || {
    # Replay the run's text output without the per-test progress lines.
    jq -rj 'select(.Output != null) | .Output' "$tmpj" | grep -v -e '^=== ' -e '^--- PASS' >&2 || true
    rm -f "$tmpj"
    exit 1
}
skipped=$(jq -r 'select(.Action == "skip" and .Test != null) | "\(.Package) \(.Test)"' "$tmpj")
rm -f "$tmpj"
if [ -n "$skipped" ]; then
    echo "check: tests skipped in a full run:" >&2
    echo "$skipped" >&2
    exit 1
fi

echo "== go test -race (fleet, engine, fault, client, catalog, serve, cluster, store, qos) =="
go test -race ./internal/fleet/... ./internal/engine/... ./internal/fault/... ./internal/client/... ./internal/catalog/... ./internal/serve/... ./internal/cluster/... ./internal/store/... ./internal/qos/...

echo "== go test -race -count=5 (job pool scheduling) =="
# A lost wakeup between the slots and close() shows only in rare
# interleavings, so one pass can miss it: repeat the pool's scheduling
# tests (lending, whale caps, yielding, drain, close's wakeup).
go test -race -count=5 -run '^(TestIdleSlotLendsToRunningJob|TestLendingNeverExceedsWorkers|TestWhaleLendingCap|TestLentSlotYieldsToQueuedJob|TestPoolDrainAndAbort|TestPoolCloseWakesEverySlot)$' ./internal/serve/

echo "== go test -race (expt fleet cross-check) =="
go test -race -run 'TestFleetWorkerCrossCheck|TestReplicateOrder' ./internal/expt/

echo "== go test -race -short (protocol library) =="
# -short skips the statistical equivalence suites (they run in full under
# tier-1 `go test ./...`); the unit, fuzz-seed and driver-integration tests
# still exercise every protocol here.
go test -race -short ./internal/protocols/

echo "== coverage floors (engine, obs, catalog, serve, fleet, client, cluster, store, qos, protocols ≥ 80%) =="
# The output is captured, then written through the inherited stderr:
# `tee /dev/stderr` would reopen a redirected caller's log and truncate it.
cover=$(go test -cover ./internal/engine/ ./internal/obs/ ./internal/catalog/ ./internal/serve/ ./internal/fleet/ ./internal/client/ ./internal/cluster/ ./internal/store/ ./internal/qos/ ./internal/protocols/) \
    || { printf '%s\n' "$cover" >&2; exit 1; }
printf '%s\n' "$cover" >&2
echo "$cover" | awk '
    /coverage:/ {
        pct = $0
        sub(/.*coverage: /, "", pct)
        sub(/%.*/, "", pct)
        if (pct + 0 < 80) { printf "coverage floor: %s is below 80%%\n", $2; bad = 1 }
    }
    END { exit bad }
' || { echo "check: instrumented packages must keep ≥ 80% statement coverage" >&2; exit 1; }

echo "== benchdiff harness smoke (benchdiff.sh's default benchmarks, one iteration each) =="
# tier-1 `go test ./...` never runs benchmarks, so this is the only place a
# kernel benchmark that panics or stops matching would show before benchdiff.
pattern=$(sed -n "s/^default_pattern='\(.*\)'$/\1/p" scripts/benchdiff.sh)
[ -n "$pattern" ] || { echo "check: scripts/benchdiff.sh has no default_pattern line" >&2; exit 1; }
tmpb=$(mktemp)
go test -run '^$' -bench "$pattern" -benchtime 1x -timeout 10m ./internal/engine/ > "$tmpb"
for b in ${pattern//|/ }; do
    grep -q "^$b" "$tmpb" || { echo "check: $b did not run" >&2; exit 1; }
done
go run ./cmd/benchdiff "$tmpb" "$tmpb" >/dev/null
rm -f "$tmpb"

echo "== kernel smoke (popbench -kernel -quick under -race) =="
tmpk=$(mktemp -d)
go run -race ./cmd/popbench -kernel -quick -out "$tmpk" >/dev/null
grep -q '"runner": "aggregate"' "$tmpk/BENCH_kernel.json" \
    || { echo "check: kernel smoke produced no aggregate rows" >&2; exit 1; }
rm -rf "$tmpk"

echo "== compare smoke (popbench -compare -quick: one row per protocol × n) =="
tmpc=$(mktemp -d)
go run ./cmd/popbench -compare -quick -out "$tmpc" >/dev/null
# The quick grid is 6 protocols × 2 sizes; every cell must produce exactly
# one row, and every replica of every cell must have converged.
jq -e '
    (.compare.rows | length == 12)
    and ([.compare.rows[] | {p: .protocol, n: .n}] | unique | length == 12)
    and all(.compare.rows[]; .converged == .seeds)
' "$tmpc/BENCH_results.json" >/dev/null \
    || { echo "check: compare smoke missing rows or unconverged cells" >&2; exit 1; }
rm -rf "$tmpc"

echo "== svcbench vet + self-tests (its own module: shape guard, BENCHMARK.json metric sync, one smoke run per workload) =="
# svcbench compiles against serve.Config, cluster.Config, serve.RunOptions,
# fleet.Stats and both MetricsSnapshot types; root `go vet ./...` and tier-1
# `go test ./...` stop at its module boundary, so an API change would break
# the benchmark unseen without this step.
(cd svcbench && go vet . && go test -count=1 .)

echo "== popserved smoke =="
./scripts/serve-smoke.sh

echo "== qos smoke (tenant isolation, whale cap, cost-budget 413) =="
./scripts/qos-smoke.sh

echo "== result-cache smoke (store hits, sweep dedupe, restart persistence) =="
./scripts/cache-smoke.sh

echo "== cluster smoke (coordinator + worker kill -9) =="
./scripts/cluster-smoke.sh

echo "== observability smoke (trace byte-identity + event kinds) =="
./scripts/obs-smoke.sh

echo "== chaos (fault injection + recovery) =="
./scripts/chaos.sh

echo "check: OK"
