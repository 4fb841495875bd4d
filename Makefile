GO ?= go

.PHONY: build test check bench benchdiff kernel compare svcbench serve-smoke cluster-smoke obs-smoke cache-smoke qos-smoke loadtest chaos

build:
	$(GO) build ./...

# Tier-1: the full test suite.
test:
	$(GO) test ./...

# Tier-2: vet + gofmt + race-detector runs over the concurrent packages,
# plus a quick parse-through of the benchdiff harness.
check:
	./scripts/check.sh

# Regenerate the experiment tables and BENCH_results.json into results/.
bench:
	$(GO) run ./cmd/popbench -out results

# Compare kernel benchmarks of the working tree against a baseline ref
# (default HEAD~1): make benchdiff [REF=main]. Each side prints its median
# and min–max range; overlapping ranges mark a delta unresolved. Set
# FAIL_OVER=10 to exit 1 when any ns/op, ns/interaction or ns/firing median
# regresses by more than 10%.
benchdiff:
	./scripts/benchdiff.sh $(REF)

# One untraced run of the end-to-end service benchmark's cold workload
# (BENCHMARK.json); prints the metrics as one JSON line.
svcbench:
	bash svcbench/run.sh --workload cold --seed 1 --seconds 15 --trace 0

# Boot popserved, run one job through POST /v1/simulate, check the NDJSON
# stream and a clean SIGTERM drain.
serve-smoke:
	./scripts/serve-smoke.sh

# Boot popcoord over two popserved workers, kill -9 one mid-job, and diff
# the merged cluster stream against single-node bytes.
cluster-smoke:
	./scripts/cluster-smoke.sh

# Trace contract: popsim -trace output is byte-identical to an untraced run
# and the timeline carries the expected event kinds per execution mode.
obs-smoke:
	./scripts/obs-smoke.sh

# Result-store contract: repeat POSTs are byte-identical store hits with
# zero fleet work, overlapping sweeps re-run only their miss set, and the
# cache survives a restart.
cache-smoke:
	./scripts/cache-smoke.sh

# QoS contract: one tenant's whale flood cannot starve another tenant's
# interactive jobs (zero 429s, bounded latency, byte-identical streams),
# the whale concurrency cap holds, and -cost-budget rejects with a
# structured 413 — all visible in per-tenant /metrics.
qos-smoke:
	./scripts/qos-smoke.sh

# Full popserved load test: concurrent streams, 429 backpressure,
# CLI-vs-HTTP byte-identical determinism, graceful drain.
loadtest:
	./scripts/loadtest.sh

# Chaos gate (race-built): injected replica panics recovered by retry,
# kill -9 + journal resume, severed streams resumed by the retrying client —
# each diffed byte-for-byte against a fault-free run.
chaos:
	./scripts/chaos.sh

# Re-measure the raw simulation kernels into results/BENCH_kernel.json.
kernel:
	$(GO) run ./cmd/popbench -kernel -out results

# Run the related-work head-to-head grid (gs18leader, gsexactmajority,
# aagmajority vs the incumbent entries) into results/BENCH_results.json.
compare:
	$(GO) run ./cmd/popbench -compare -out results
