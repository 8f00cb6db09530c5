#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash benchmark/run.sh --workload hot-hit --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, its
# own configuration) is kept under .bench_build/ in the checkout, so a
# run reads and writes nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $root: the program is not in this checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# A go command with a fresh configuration directory starts a telemetry
# child that outlives it; with the mode off it starts none.
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -o "$build/ofc-benchmark" ./benchmark
exec "$build/ofc-benchmark" "$@"
