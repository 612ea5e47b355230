GO ?= go

# FUZZTIME bounds each fuzz-smoke target; COVER_BASELINE is the minimum
# total statement coverage `make cover` accepts (the pre-harness figure,
# ratcheted up as coverage grows).
FUZZTIME ?= 30s
COVER_BASELINE ?= 88.5

.PHONY: check race cover fuzz-smoke serve-smoke chaos-smoke bench-smoke ci bench-parallel bench-serve bench-json bench-gate

## check: gofmt, vet, build and test everything (the tier-1 gate); fails
## on any file gofmt would rewrite. `go test ./...` includes the dead-code
## gate (TestNoDeadCode in deadcode_test.go): production code that no
## production code uses fails it.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

## race: run the packages with concurrency — including the root package's
## observability/cancellation tests — under the race detector.
race:
	$(GO) test -race . ./internal/arena/... ./internal/core/... ./internal/block/... ./internal/blocking/... ./internal/blockproc/... ./internal/obs/... ./internal/oracle/... ./internal/server/... ./internal/shard/... ./internal/incremental/... ./internal/budget/... ./internal/fault/... ./internal/par/... ./internal/store/... ./internal/diskindex/... ./internal/eval ./internal/dataio ./cmd/serve ./cmd/metablock

## cover: fail if total statement coverage drops below COVER_BASELINE.
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./...
	$(GO) tool cover -func=coverage.out | awk -v min=$(COVER_BASELINE) \
		'/^total:/ { sub(/%/, "", $$3); printf "total coverage %s%% (baseline %s%%)\n", $$3, min; \
		if ($$3+0 < min+0) { print "coverage regressed below baseline"; exit 1 } }'

## fuzz-smoke: run every fuzz target for FUZZTIME each — the differential
## oracle comparators on mutated block collections, the tokenizer, the
## out-of-core add/checkpoint/crash state machine, the WAL
## crash-replay loop (reference never rolls back), the in-memory sharded
## group's resolve/peek/resume-peek/snapshot-reload sequences against the
## serial resolver at shards {1, 2, 4}, and the resolver artifact body
## codec (malformed bodies refused, decoded ones re-encode to the same
## bytes).
fuzz-smoke:
	$(GO) test ./internal/oracle -run '^$$' -fuzz '^FuzzDiffDirty$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz '^FuzzDiffClean$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/entity -run '^$$' -fuzz '^FuzzTokenize$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/diskindex -run '^$$' -fuzz '^FuzzOutOfCore$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/diskindex -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/shard -run '^$$' -fuzz '^FuzzShardedMatchesSerial$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzResolverBody$$' -fuzztime $(FUZZTIME)

## serve-smoke: build cmd/serve, start it on a random port, resolve a
## profile over HTTP, assert /healthz + /metrics, SIGTERM-drain, exit 0.
serve-smoke:
	sh scripts/serve_smoke.sh

## chaos-smoke: SIGKILL the real binary mid-snapshot (fault-injected
## delay), restart on the surviving artifact, assert /readyz green and
## that a corrupted snapshot reload yields 422. A -shards 4 server must
## write the one-shard server's artifact byte for byte.
chaos-smoke:
	sh scripts/chaos_smoke.sh

## bench-smoke: the repository benchmark's own tests — every
## BENCHMARK.json workload driven once through the real binaries
## (TestSmokeAllWorkloads), answers checked against the oracle and pins.
bench-smoke:
	$(GO) test ./benchmark/

## ci: what the GitHub Actions workflow runs — one step per target below,
## so this file is the only place a package list or baseline is named.
ci: check race cover fuzz-smoke serve-smoke chaos-smoke bench-smoke bench-gate

## bench-parallel: regenerate the worker-sweep numbers locally (output is
## machine-specific and gitignored; honest wall-clock depends on host cores).
## Time-based -benchtime with -count=5 gives benchstat enough samples to
## separate signal from scheduler noise; compare two runs with
##   go run golang.org/x/perf/cmd/benchstat old.txt new.txt
## (or eyeball the per-count spread if benchstat is unavailable).
bench-parallel:
	$(GO) test -run xxx -bench 'BenchmarkParallel' -benchtime 2s -count=5 . ./internal/core

## bench-serve: micro-bench the batched server resolve path (reports
## ns/op, allocs and the achieved profiles/batch).
bench-serve:
	$(GO) test -run xxx -bench 'BenchmarkServerResolve' ./internal/server

## bench-json: emit the allocs/op gate's rows as JSON (BENCH_PR10.json
## format: allocs/op, plus ns/op and B/op as an informational record).
## Wall-clock numbers come from benchmark/ (BENCHMARK.json), not here.
bench-json:
	sh scripts/bench_json.sh

## bench-gate: re-run the headline benchmarks and fail if any row's
## allocs/op (hardware-independent) regressed beyond its tolerance vs
## the newest committed BENCH_PR<N>.json (highest N).
bench-gate:
	$(GO) run ./cmd/benchjson gate -baseline $$(ls BENCH_PR*.json | sort -V | tail -1)
