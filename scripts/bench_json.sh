#!/bin/sh
# bench_json.sh — emit the rows of the allocs/op gate as machine-readable
# JSON (the BENCH_PR10.json format): allocs/op for the serial pipeline,
# the batched server resolve path (monolithic plus the 4- and 16-shard
# scatter-gather sweep), the out-of-core read path (cold and warm page
# cache) and the disk-mode commit path under each WAL sync policy, with
# ns/op and B/op as an informational record. Wall-clock latency and
# throughput are measured by benchmark/ (BENCHMARK.json), not here.
#
# Usage:
#   sh scripts/bench_json.sh [out.json]
#
# With no argument the JSON goes to stdout. To refresh the committed
# trajectory after an intentional performance change:
#   sh scripts/bench_json.sh fresh.json
#   # inspect fresh.json, then fold its numbers into BENCH_PR10.json's
#   # "benchmarks" section.
set -eu

cd "$(dirname "$0")/.."

if [ "$#" -ge 1 ]; then
    exec go run ./cmd/benchjson emit -o "$1"
fi
exec go run ./cmd/benchjson emit
