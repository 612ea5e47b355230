package main

import (
	"fmt"

	"metablocking/internal/datagen"
)

// workload is one named set of inputs plus the way the program is run on
// it. Every count is fixed: a round always does the same operations on
// the same inputs, so a faster commit finishes a round sooner and fits
// more rounds into the run, never a different mix of work (a resolve
// grows the index, so a time-boxed operation count would).
type workload struct {
	name string
	why  string

	// Serve workloads: cmd/serve is started with flags (plus -addr,
	// -snapshot and, for disk, -disk-dir), preloaded with preload
	// profiles through -snapshot, warmed with warm operations, then timed
	// over ops operations by two closed-loop clients.
	serve    bool
	k        int  // -k, also stamped into the preload snapshot
	shards   int  // -shards
	batchMax int  // -batch-max; 0 leaves cmd/serve's default of 64
	disk     bool // -disk-dir with -wal-sync always: SIGKILL + recovery after the timed section
	memtable int  // -memtable-budget (disk)
	cache    int  // -disk-cache (disk)
	stream   bool // NDJSON streams followed through their cursors
	preload  int
	warm     int
	ops      int
	// afterKill resolves are sent to the restarted server of a disk
	// workload; traceOps is how many of ops the in-process traced passes
	// replay.
	afterKill int
	traceOps  int

	// Batch workloads: cmd/metablock runs execs times per round on a
	// Dirty collection of profiles profiles.
	graphFree bool
	shape     func(n int, seed int64) datagen.Config
	profiles  int
	execs     int
}

// d2Like is the IMDB–DBpedia shape (the paper's D2, its highest-BPE
// benchmark): one terse source (≈7 tokens per profile) and one verbose
// source (≈32), a Zipf 1.1 core vocabulary. The ratios are datagen's D2C
// preset; the sizes and the seed are the benchmark's.
func d2Like(n int, seed int64) datagen.Config {
	return datagen.Config{
		Name:       "d2-like",
		Seed:       seed,
		Size1:      n - n/2,
		Size2:      n / 2,
		Duplicates: n * 2 / 5,
		Vocabulary: n * 3 / 2,
		ZipfS:      1.1,
		CoreTokens: 6,
		Source1: datagen.SourceConfig{
			AttributeNames: 4, AttributesPerProfile: 4,
			TokensPerProfile: 7, NoiseRate: 0.13, FillerRate: 0.70,
		},
		Source2: datagen.SourceConfig{
			AttributeNames: 7, AttributesPerProfile: 7,
			TokensPerProfile: 32, NoiseRate: 0.13, FillerRate: 0.55,
		},
	}
}

// d3Like is the Wikipedia-infobox shape (the paper's D3): thousands of
// attribute names, ≈15 tokens per profile.
func d3Like(n int, seed int64) datagen.Config {
	return datagen.Config{
		Name:       "d3-like",
		Seed:       seed,
		Size1:      n - n*6/11,
		Size2:      n * 6 / 11,
		Duplicates: n / 3,
		Vocabulary: n * 9 / 5,
		ZipfS:      1.1,
		CoreTokens: 8,
		Source1: datagen.SourceConfig{
			AttributeNames: 3000, AttributesPerProfile: 10,
			TokensPerProfile: 14, NoiseRate: 0.14, FillerRate: 0.90,
		},
		Source2: datagen.SourceConfig{
			AttributeNames: 5000, AttributesPerProfile: 11,
			TokensPerProfile: 15, NoiseRate: 0.14, FillerRate: 0.90,
		},
	}
}

// workloads returns the six workloads. smoke shrinks every count to
// hundreds of operations so the whole set runs in a few seconds under
// `go test`.
func workloads(smoke bool) []workload {
	ws := []workload{
		{
			name:  "serve_mem_default",
			why:   "cmd/serve out of the box (2 ms batch window, batch-max 64): the admission/batcher layer does most of the work, the index almost none",
			serve: true, k: 10, shards: 1,
			preload: 20000, warm: 100, ops: 1700, traceOps: 600,
		},
		{
			name:  "serve_mem_direct",
			why:   "-batch-max 1 bypasses the batch window: the monolithic index, JSON and HTTP do all the work; a window change must show nothing here",
			serve: true, k: 10, shards: 1, batchMax: 1,
			preload: 20000, warm: 200, ops: 12000, traceOps: 4000,
		},
		{
			name:  "serve_disk_wal",
			why:   "4 disk shards, WAL fsync per commit, page cache smaller than the sealed set: paged gathers, seals, compactions, then SIGKILL and recovery",
			serve: true, k: 10, shards: 4, batchMax: 1,
			disk: true, memtable: 60000, cache: 131072,
			preload: 20000, warm: 100, ops: 2500, afterKill: 100, traceOps: 1500,
		},
		{
			name:  "serve_stream_reads",
			why:   "NDJSON streams of 16 followed through their cursors on 4 memory shards, k=64: one write plus read-only re-gathers per stream, the wide exact merge",
			serve: true, k: 64, shards: 4, batchMax: 1, stream: true,
			preload: 20000, warm: 50, ops: 2100, traceOps: 700,
		},
		{
			name:     "batch_meta",
			why:      "cmd/metablock with default flags (Block Filtering 0.8, JS + Reciprocal WNP) on the highest-BPE shape: core weighting and pruning do most of the work",
			shape:    d2Like,
			profiles: 13000, execs: 3,
		},
		{
			name:      "batch_graphfree",
			why:       "cmd/metablock -graphfree on the many-attribute shape bypasses core: blocking, blockproc and CSV in/out are the whole run",
			graphFree: true,
			shape:     d3Like,
			profiles:  18000, execs: 3,
		},
	}
	if smoke {
		for i := range ws {
			w := &ws[i]
			if w.serve {
				w.preload, w.warm, w.ops, w.traceOps = 1500, 20, 200, 100
				if w.stream {
					w.ops, w.traceOps = 60, 40
				}
				if w.disk {
					w.afterKill = 20
					w.memtable = 20000 // a smoke round still seals
				}
			} else {
				w.profiles, w.execs = 1500, 1
			}
		}
	}
	return ws
}

// notJudged says why an end-to-end metric carries no verdict of its own
// on this workload, or "" if it does. The driver wants every metric on
// every workload, so these rows are reported; -compare leaves them out of
// its count rather than flag one change twice or judge a tail of three.
func (w workload) notJudged(metric string) string {
	switch {
	case metric == "first_result_p50_ms" && !w.stream:
		return "equals op_p50_ms here"
	case metric == "op_p99_ms" && !w.serve:
		return "the slowest of a round's few executions"
	}
	return ""
}

func findWorkload(ws []workload, name string) (workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
