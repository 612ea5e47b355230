#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload serve_mem_direct --seed 1 --seconds 10 --trace 0
#
# Builds the harness (and, through it, cmd/serve and cmd/metablock) from
# source and runs it. Everything the toolchain and the run write — build
# cache, binaries, temporary files — stays under .bench_build/ in the
# checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/serve ] || [ ! -d cmd/metablock ]; then
	echo "benchmark: run from the root of a checkout of the repository (go.mod, cmd/serve and cmd/metablock are needed to build)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
mkdir -p "$build/home"
# HOME too: the toolchain keeps telemetry counters and its env file there.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local

go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
