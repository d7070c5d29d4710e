#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the checkout
# root, e.g.
#
#   bash perfbench/run.sh --workload train-data --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary, and whatever a run writes stay under
# .bench_build/ at the root; the build needs no network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-mod=readonly GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
