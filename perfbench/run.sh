#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed on. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload fine-tasks --seed 1 --seconds 20 --trace 0
#
# The build and everything the run writes stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
