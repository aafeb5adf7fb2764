#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload author_edits --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
