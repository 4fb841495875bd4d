#!/usr/bin/env bash
# Compare the working tree's kernel benchmarks against a baseline git ref.
#
#   scripts/benchdiff.sh [REF] [BENCH_REGEX]
#
# REF defaults to HEAD~1 (the parent commit); BENCH_REGEX defaults to the
# simulation-kernel microbenchmarks. The baseline is materialised in a
# throwaway `git worktree`, both sides run `go test -bench` with -count
# repetitions, and cmd/benchdiff (stdlib benchstat-style comparator)
# renders the medians and deltas.
#
# Environment knobs:
#   COUNT=5        benchmark repetitions per side (default 5; QUICK uses 2)
#   BENCHTIME=1s   -benchtime per benchmark (QUICK uses 1000x)
#   QUICK=1        fast smoke mode for CI / make check
#   FAIL_OVER=10   exit 1 if any ns/op or ns/interaction metric regresses
#                  by more than this percent (benchdiff -fail-over)
set -euo pipefail
cd "$(dirname "$0")/.."

ref="${1:-HEAD~1}"
pattern="${2:-BenchmarkBatchStep|BenchmarkAggregateStep|BenchmarkDenseStep|BenchmarkAliasSample}"
count="${COUNT:-5}"
benchtime="${BENCHTIME:-1s}"
if [ "${QUICK:-0}" = "1" ]; then
    count=2
    benchtime=1000x
fi

base=$(git rev-parse --verify "$ref^{commit}")
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT

echo "== baseline: $ref ($base) =="
git worktree add --detach "$tmp/base" "$base" >/dev/null
(cd "$tmp/base" && go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count "$count" ./internal/engine/) \
    | tee "$tmp/old.txt" | grep '^Benchmark' || true
if ! grep -q '^Benchmark' "$tmp/old.txt"; then
    echo "(no matching benchmarks at $ref — baseline column will be empty)"
fi

echo "== working tree =="
go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count "$count" ./internal/engine/ \
    | tee "$tmp/new.txt" | grep '^Benchmark' || true

echo
go run ./cmd/benchdiff -fail-over "${FAIL_OVER:-0}" "$tmp/old.txt" "$tmp/new.txt"
