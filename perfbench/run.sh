#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout; everything it builds and writes stays under .bench_build/:
#
#   bash perfbench/run.sh --workload port-race --seed 1 --seconds 10 --trace 0
#
# Workloads: port-race, fleet-ladder, verified-serve. The last line of
# standard output is the JSON result; --trace 1 also writes a Chrome
# trace and a per-layer JSON under .bench_build/perfbench-out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off
go build -C perfbench -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
