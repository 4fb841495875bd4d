#!/usr/bin/env bash
# Compare the working tree's kernel benchmarks against a baseline git ref.
#
#   scripts/benchdiff.sh [REF] [BENCH_REGEX]
#
# REF defaults to HEAD~1 (the parent commit); BENCH_REGEX defaults to the
# simulation-kernel microbenchmarks. The baseline is materialised in a
# throwaway `git worktree`, and each side's engine test binary is built
# once. The two binaries then run alternately, one -test.count=1 pass at a
# time, with the side that goes first switching every repetition, so host
# drift during the run falls on both sides alike. cmd/benchdiff (stdlib
# benchstat-style comparator) renders each side's median with its min–max
# range and the delta, marked "unresolved" when the ranges overlap.
#
# Environment knobs:
#   COUNT=5        benchmark repetitions per side (default 5; QUICK uses 2)
#   BENCHTIME=1s   -benchtime per benchmark (QUICK uses 100ms)
#   QUICK=1        fast smoke mode for CI / make check
#   FAIL_OVER=10   exit 1 if any ns/op, ns/interaction or ns/firing median
#                  regresses by more than this percent (benchdiff -fail-over)
set -euo pipefail
cd "$(dirname "$0")/.."

# The default benchmark set. scripts/check.sh reads this line and runs the
# set once, so keep it a single-quoted assignment.
default_pattern='BenchmarkBatchStep|BenchmarkBatchRunTracked|BenchmarkAggregateStep|BenchmarkDenseStep|BenchmarkAliasSample|BenchmarkGeometric'

ref="${1:-HEAD~1}"
pattern="${2:-$default_pattern}"
count="${COUNT:-5}"
benchtime="${BENCHTIME:-1s}"
if [ "${QUICK:-0}" = "1" ]; then
    count=2
    benchtime=100ms
fi

base=$(git rev-parse --verify "$ref^{commit}")
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT

git worktree add --detach "$tmp/base" "$base" >/dev/null
(cd "$tmp/base" && go test -c -o "$tmp/old.test" ./internal/engine/)
go test -c -o "$tmp/new.test" ./internal/engine/
: > "$tmp/old.txt"
: > "$tmp/new.txt"

# run SIDE: one pass of SIDE's binary from the engine package directory.
run() {
    echo "== $1 =="
    (cd internal/engine && "$tmp/$1.test" -test.run '^$' -test.bench "$pattern" \
        -test.benchtime "$benchtime" -test.count 1 -test.timeout 30m) \
        | tee -a "$tmp/$1.txt" | grep '^Benchmark' || true
}

echo "baseline: $ref ($base); working tree alternates with it, $count runs each"
for ((i = 0; i < count; i++)); do
    if ((i % 2 == 0)); then
        run old
        run new
    else
        run new
        run old
    fi
done
if ! grep -q '^Benchmark' "$tmp/old.txt"; then
    echo "(no matching benchmarks at $ref — baseline column will be empty)"
fi

echo
go run ./cmd/benchdiff -fail-over "${FAIL_OVER:-0}" "$tmp/old.txt" "$tmp/new.txt"
