#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload dense-grid --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the
# scratch stores and the trace outputs all stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out/perfbench-out" "$@"
