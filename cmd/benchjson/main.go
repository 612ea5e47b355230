// Command benchjson is the repository's allocation gate: it runs the
// headline benchmarks in-process and fails when allocs/op regressed
// against a committed file (`make bench-gate` passes the newest
// BENCH_PR<N>.json). Wall-clock numbers are
// not its job: the benchmark/ harness, declared in BENCHMARK.json,
// measures latency, throughput and memory of the real binaries.
//
// Two modes:
//
//	benchjson emit [-o out.json]
//	    runs the headline benchmarks (testing.Benchmark) and writes
//	    {"schema":1,"benchmarks":{...}}: allocs/op for the serial
//	    pipeline, the batched server resolve path (monolithic plus the
//	    4- and 16-shard scatter-gather sweep), the out-of-core read path
//	    (cold and warm page cache) and the disk-mode commit path under
//	    each write-ahead-log sync policy (commit_wal_off /
//	    commit_wal_interval / commit_wal_always). ns/op and B/op come
//	    free with every testing.BenchmarkResult and are recorded as
//	    information only.
//
//	benchjson gate -baseline BENCH_PR10.json
//	    runs the same benchmarks and exits non-zero when any row of the
//	    baseline's benchmarks section is missing or its allocs/op
//	    exceeds base·(1+tolerance) — so a zero-allocation row fails on
//	    its first allocation. allocs/op is hardware-independent, so the
//	    gate fails the same way on any host. A row's alloc_tolerance
//	    overrides defaultAllocTolerance.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"metablocking"
	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/diskindex"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
	"metablocking/internal/server"
	"metablocking/internal/shard"
	"metablocking/internal/store"
)

// defaultAllocTolerance is the allowed allocs/op growth (a fraction:
// 0.10 = fail beyond +10%) for rows without their own alloc_tolerance.
const defaultAllocTolerance = 0.10

// Bench is one benchmark's recorded metrics plus its optional gate
// tolerance. Only AllocsPerOp is gated; the rest is informational.
type Bench struct {
	NsPerOp          float64 `json:"ns_per_op"`
	BytesPerOp       int64   `json:"bytes_per_op"`
	AllocsPerOp      int64   `json:"allocs_per_op"`
	ProfilesPerBatch float64 `json:"profiles_per_batch,omitempty"`
	AllocTolerance   float64 `json:"alloc_tolerance,omitempty"`
}

// File is the committed gate artifact.
type File struct {
	Schema     int              `json:"schema"`
	PR         int              `json:"pr,omitempty"`
	Note       string           `json:"note,omitempty"`
	Go         string           `json:"go,omitempty"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson emit|gate [flags]")
		os.Exit(2)
	}
	switch os.Args[1] {
	case "emit":
		fs := flag.NewFlagSet("emit", flag.ExitOnError)
		out := fs.String("o", "", "output file (default stdout)")
		fs.Parse(os.Args[2:])
		f := File{Schema: 1, Go: runtime.Version(), Benchmarks: runAll()}
		writeJSON(*out, f)
	case "gate":
		fs := flag.NewFlagSet("gate", flag.ExitOnError)
		basePath := fs.String("baseline", "BENCH_PR10.json", "committed benchmark file")
		fs.Parse(os.Args[2:])
		base := readJSON(*basePath)
		if !gate(base.Benchmarks, runAll()) {
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "benchjson: unknown mode %q\n", os.Args[1])
		os.Exit(2)
	}
}

func runAll() map[string]Bench {
	out := make(map[string]Bench)
	fmt.Fprintln(os.Stderr, "benchjson: running pipeline_workers1 ...")
	out["pipeline_workers1"] = benchPipeline()
	fmt.Fprintln(os.Stderr, "benchjson: running server_resolve ...")
	out["server_resolve"] = benchServerResolve(1)
	for _, shards := range []int{4, 16} {
		name := fmt.Sprintf("server_resolve_shards%d", shards)
		fmt.Fprintln(os.Stderr, "benchjson: running "+name+" ...")
		out[name] = benchServerResolve(shards)
	}
	fmt.Fprintln(os.Stderr, "benchjson: running resolve_disk_cold ...")
	out["resolve_disk_cold"] = benchResolveDisk(1)
	fmt.Fprintln(os.Stderr, "benchjson: running resolve_disk_warm ...")
	out["resolve_disk_warm"] = benchResolveDisk(8 << 20)
	for _, policy := range []string{server.WALSyncOff, server.WALSyncInterval, server.WALSyncAlways} {
		name := "commit_wal_" + policy
		fmt.Fprintln(os.Stderr, "benchjson: running "+name+" ...")
		out[name] = benchCommit(policy)
	}
	return out
}

// benchCommit prices the disk-mode commit path under one WAL sync
// policy: a single sequential client resolving against a disk-backed
// server, so each op is one acknowledged write including its append
// and — under "always" — its own group-commit fsync barrier (a batch
// of one: the worst case; concurrent load amortizes the barrier over
// the whole micro-batch). The memtable budget is high enough that
// nothing checkpoints, isolating the commit cost from seal cost.
func benchCommit(policy string) Bench {
	profiles := benchProfiles(1000)
	root, err := os.MkdirTemp("", "benchjson-wal")
	if err != nil {
		fatalf("commit bench: %v", err)
	}
	defer os.RemoveAll(root)
	s, err := server.New(server.Config{
		Resolver:    incremental.Config{Scheme: core.JS, K: 10},
		BatchWindow: 200 * time.Microsecond,
		MaxBatch:    64,
		QueueDepth:  8192,
		DiskDir:     root,
		WALSync:     policy,
	})
	if err != nil {
		fatalf("commit bench: %v", err)
	}
	defer s.Close()

	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Resolve(context.Background(), profiles[i%len(profiles)]); err != nil {
				fatalf("commit bench: resolve: %v", err)
			}
		}
	})
	return fromResult(r)
}

// benchPipeline mirrors BenchmarkParallelPipeline/workers=1: the full
// serial pipeline (Token Blocking → purging → filtering r=0.8 → JS +
// ReciprocalWNP pruning) on the D2D dataset at scale 0.5.
func benchPipeline() Bench {
	ds := datagen.D2D(0.5)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := metablocking.Pipeline{
				FilterRatio: 0.8,
				Scheme:      metablocking.JS,
				Algorithm:   metablocking.ReciprocalWNP,
				Workers:     1,
			}.Run(ds.Collection)
			if err != nil {
				fatalf("pipeline: %v", err)
			}
			if len(res.Pairs) == 0 {
				fatalf("pipeline retained nothing")
			}
		}
	})
	return fromResult(r)
}

// benchServerResolve mirrors BenchmarkServerResolve(Shards): the batched
// resolve path end to end with concurrent submitters so micro-batches
// coalesce, serving either the monolithic index (shards == 1) or the
// scatter-gather coordinator.
func benchServerResolve(shards int) Bench {
	profiles := benchProfiles(1000)
	s, err := server.New(server.Config{
		Resolver:    incremental.Config{Scheme: core.JS, K: 10},
		Shards:      shards,
		BatchWindow: 200 * time.Microsecond,
		MaxBatch:    64,
		QueueDepth:  8192,
	})
	if err != nil {
		fatalf("server: %v", err)
	}
	defer s.Close()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := s.Resolve(context.Background(), profiles[i%len(profiles)]); err != nil {
					fatalf("resolve: %v", err)
				}
				i++
			}
		})
	})
	out := fromResult(r)
	if batches := s.Metrics().Counter(server.CtrBatches).Value(); batches > 0 {
		out.ProfilesPerBatch = float64(s.Metrics().Counter(server.CtrBatchedProfs).Value()) / float64(batches)
	}
	return out
}

// benchResolveDisk measures the out-of-core read path: 1000 profiles
// sealed into five delta segments (compaction disabled so the gather
// fans across a realistic LSM depth), then read-only Peek resolves
// through the shard coordinator. cacheBytes picks the variant: 1 byte
// evicts almost every posting page between operations so each Peek
// re-reads and re-verifies pages from disk (cold); 8 MiB holds the whole
// working set after the first pass (warm) — the steady state a serving
// replica lives in, where the disk index must cost no more allocations
// than the page-cache hits themselves.
func benchResolveDisk(cacheBytes int) Bench {
	profiles := benchProfiles(1000)
	rcfg := incremental.Config{Scheme: core.JS, K: 10}
	root, err := os.MkdirTemp("", "benchjson-disk")
	if err != nil {
		fatalf("disk bench: %v", err)
	}
	defer os.RemoveAll(root)

	open := func() *shard.Group {
		layout, err := store.RecoverDiskDir(root, 1)
		if err != nil {
			fatalf("disk bench: recover: %v", err)
		}
		parts := make([]*diskindex.Partition, layout.Shards)
		for k, state := range layout.Shard {
			parts[k], err = diskindex.Open(diskindex.Options{
				Config:       rcfg,
				Shards:       layout.Shards,
				Index:        k,
				State:        state,
				Checkpoint:   layout.Checkpoint,
				Size:         layout.Size,
				CacheBytes:   cacheBytes,
				CompactAfter: 64,
			})
			if err != nil {
				fatalf("disk bench: open: %v", err)
			}
		}
		blockSize := make(map[string]int)
		for _, p := range parts {
			p.AddBlockCounts(blockSize)
		}
		g, err := shard.Restored(shard.Config{
			Resolver:   rcfg,
			Shards:     layout.Shards,
			Backends:   func(k int) (shard.Backend, error) { return parts[k], nil },
			Checkpoint: layout.MaxCheckpoint,
		}, layout.Size, blockSize)
		if err != nil {
			fatalf("disk bench: restore: %v", err)
		}
		return g
	}

	g := open()
	defer func() { g.Close() }()
	for i, p := range profiles {
		if _, err := g.Resolve(p); err != nil {
			fatalf("disk bench: resolve: %v", err)
		}
		if (i+1)%200 == 0 {
			if err := g.Checkpoint(); err != nil {
				fatalf("disk bench: checkpoint: %v", err)
			}
		}
	}

	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for i = 0; i < b.N; i++ {
			if _, err := g.Peek(profiles[i%len(profiles)]); err != nil {
				fatalf("disk bench: peek: %v", err)
			}
		}
	})
	return fromResult(r)
}

func benchProfiles(n int) []entity.Profile {
	ds := datagen.D1D(0.1)
	if len(ds.Collection.Profiles) < n {
		fatalf("dataset has %d profiles, need %d", len(ds.Collection.Profiles), n)
	}
	return ds.Collection.Profiles[:n]
}

func fromResult(r testing.BenchmarkResult) Bench {
	return Bench{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// gate compares cur against base row by row and prints each verdict.
// It returns false when a baseline row is missing from cur or its
// allocs/op exceeds base·(1+tolerance).
func gate(base, cur map[string]Bench) bool {
	ok := true
	for _, name := range slices.Sorted(maps.Keys(base)) {
		b := base[name]
		c, present := cur[name]
		if !present {
			fmt.Printf("%-24s MISSING from current run [FAIL]\n", name)
			ok = false
			continue
		}
		tol := b.AllocTolerance
		if tol == 0 {
			tol = defaultAllocTolerance
		}
		limit := float64(b.AllocsPerOp) * (1 + tol)
		status := "ok"
		if float64(c.AllocsPerOp) > limit {
			status = "FAIL"
			ok = false
		}
		fmt.Printf("%-24s allocs/op base=%d cur=%d limit=%.1f (+%.0f%%) [%s]\n",
			name, b.AllocsPerOp, c.AllocsPerOp, limit, 100*tol, status)
	}
	if !ok {
		fmt.Println("benchjson: REGRESSION detected")
	} else {
		fmt.Println("benchjson: gate passed")
	}
	return ok
}

func writeJSON(path string, f File) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if path == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatalf("write %s: %v", path, err)
	}
}

func readJSON(path string) File {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("read: %v", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		fatalf("parse %s: %v", path, err)
	}
	if f.Schema != 1 {
		fatalf("%s: unsupported schema %d", path, f.Schema)
	}
	return f
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
