#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it; every argument is passed through (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload fine-modes --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Build caches and everything a run
# leaves behind stay in .bench_build/ under that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
