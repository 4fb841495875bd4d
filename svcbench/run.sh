#!/usr/bin/env bash
# Builds svcbench from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash svcbench/run.sh --workload cold --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache, the binary and every
# file a run writes stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd "$root/svcbench" && go build -o "$out/svcbench" .)
exec "$out/svcbench" --dir "$out" "$@"
