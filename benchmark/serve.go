package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// env is what every round needs from the invocation.
type env struct {
	binDir string // where cmd/serve and cmd/metablock were built
	tmp    string // scratch inside the checkout, removed at exit
	seed   int64
	pins   map[string]pin // what is pinned for this seed; empty for an unpinned one
}

func (e *env) roundDir(w workload, round int) (string, error) {
	dir := filepath.Join(e.tmp, fmt.Sprintf("%s.%d", w.name, round))
	return dir, os.MkdirAll(dir, 0o755)
}

// checkPin refuses inputs that differ from the digest pinned for this
// seed: a later change to the generator must not silently change what a
// parent and its child commit are compared on.
func (e *env) checkPin(name, digest string) error {
	if want, ok := e.pins[name]; ok && want.Inputs != digest {
		return fmt.Errorf("seed %d inputs hash to %s, pinned %s (did internal/datagen change? re-pin with -pin only in a benchmark-only change)",
			e.seed, digest, want.Inputs)
	}
	return nil
}

// round is what one round of a workload produced: its end-to-end metric
// values, the operations it attempted and failed, and — for the traced
// invocation — what the child published about itself.
type round struct {
	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string
	timed     time.Duration
	digest    string
	counts    childCounts
	// latencies are the timed operations' latencies in ms, in input order;
	// the traced invocation compares its own pass over a prefix of them.
	latencies []float64
}

// childCounts is read from the running child where it already publishes
// it: GET /debug/vars (the obs registry) and GET /v1/admin/status (the
// per-shard disk gauges), plus what the harness sees from outside.
type childCounts struct {
	counters     map[string]int64
	disk         diskStats
	diskDirBytes int64
	profiles     int
	recoverS     float64
	walReplayed  int64
	quality      quality // batch: PC, PQ, RR as cmd/metablock printed them
}

// diskStats is a shard's disk gauges as /v1/admin/status reports them;
// the harness sums them over shards.
type diskStats struct {
	Seals          int64 `json:"seals"`
	Compactions    int64 `json:"compactions"`
	PageReads      int64 `json:"page_reads"`
	CacheHits      int64 `json:"cache_hits"`
	WalBytes       int64 `json:"wal_bytes"`
	WalAppends     int64 `json:"wal_appends"`
	WalReplayed    int64 `json:"wal_replayed"`
	WalSyncs       int64 `json:"wal_syncs"`
	WalSyncTotalNs int64 `json:"wal_sync_total_ns"`
}

// fetchStatus returns the server's profile count and its disk gauges
// summed over shards (zero when serving from memory).
func fetchStatus(base string) (profiles int, total diskStats, err error) {
	b, err := getBody(base + "/v1/admin/status")
	if err != nil {
		return 0, total, err
	}
	var st struct {
		Profiles int `json:"profiles"`
		Shards   []struct {
			Disk *diskStats `json:"disk"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return 0, total, fmt.Errorf("status: %w", err)
	}
	for _, sh := range st.Shards {
		if d := sh.Disk; d != nil {
			total.Seals += d.Seals
			total.Compactions += d.Compactions
			total.PageReads += d.PageReads
			total.CacheHits += d.CacheHits
			total.WalBytes += d.WalBytes
			total.WalAppends += d.WalAppends
			total.WalReplayed += d.WalReplayed
			total.WalSyncs += d.WalSyncs
			total.WalSyncTotalNs += d.WalSyncTotalNs
		}
	}
	return st.Profiles, total, nil
}

func fetchCounters(base string) (map[string]int64, error) {
	b, err := getBody(base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	var vars struct {
		Counters map[string]int64
	}
	if err := json.Unmarshal(b, &vars); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return vars.Counters, nil
}

// serveArgs is the command line of one serve workload. Everything not
// named here is cmd/serve's default.
func serveArgs(w workload, snapshot, diskDir string) []string {
	args := []string{"-k", strconv.Itoa(w.k), "-shards", strconv.Itoa(w.shards)}
	if w.batchMax > 0 {
		args = append(args, "-batch-max", strconv.Itoa(w.batchMax))
	}
	if diskDir != "" {
		args = append(args, "-disk-dir", diskDir, "-wal-sync", "always",
			"-memtable-budget", strconv.Itoa(w.memtable), "-disk-cache", strconv.Itoa(w.cache))
	}
	if snapshot != "" {
		args = append(args, "-snapshot", snapshot)
	}
	return args
}

// prepareServe generates a serve workload's inputs from the seed, once
// per invocation, into a directory that lives as long as the invocation,
// and holds them to their pin.
func prepareServe(e *env, w workload) (*serveInputs, error) {
	dir := filepath.Join(e.tmp, w.name+".inputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in, err := buildServeInputs(w, e.seed, dir)
	if err != nil {
		return nil, err
	}
	return in, e.checkPin(w.name, in.digest)
}

// serveRound starts the program on the prepared inputs, warms it, times
// the fixed operation sequence through the closed loop, stops the
// process, and checks every acknowledged answer against the oracle.
//
// setup_s is the program's own set-up: exec → /readyz (which includes the
// -snapshot load) → end of warm-up. Generating the inputs is the
// harness's work, the same on every commit; inside setup_s it would be
// three quarters of the figure and hide a doubled snapshot load.
func serveRound(ctx context.Context, e *env, w workload, in *serveInputs, n int) (round, error) {
	r := round{metrics: map[string]float64{}, digest: in.digest}
	dir, err := e.roundDir(w, n)
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(e.binDir, "serve")
	var op opFunc = postResolve
	if w.stream {
		op = followStream
	}

	diskDir := ""
	if w.disk {
		diskDir = filepath.Join(dir, "index")
	}
	setupStart := time.Now()
	srv, err := startServe(ctx, bin, filepath.Join(dir, "serve.log"), serveArgs(w, in.snapshotPath, diskDir)...)
	if err != nil {
		return r, err
	}
	// Whatever happens below, the child is reaped before the round returns.
	defer func() { srv.stop(syscall.SIGKILL) }()
	conns := newConns()
	defer closeConns(conns)

	warmBodies := in.bodies[:w.warm]
	timedBodies := in.bodies[w.warm : w.warm+w.ops]
	afterBodies := in.bodies[w.warm+w.ops:]
	warm, _ := closedLoop(ctx, conns, srv.base, warmBodies, op, false)
	r.metrics["setup_s"] = time.Since(setupStart).Seconds()

	timed, wall := closedLoop(ctx, conns, srv.base, timedBodies, op, false)
	r.timed = wall
	if err := ctx.Err(); err != nil {
		return r, err
	}

	if r.counts.counters, err = fetchCounters(srv.base); err != nil {
		return r, err
	}
	if r.counts.profiles, r.counts.disk, err = fetchStatus(srv.base); err != nil {
		return r, err
	}

	var after []opResult
	lost := 0 // acknowledged writes missing after the crash, plus unclean exits
	if w.disk {
		r.counts.diskDirBytes = dirBytes(diskDir)
		// Crash, not drain: nothing the process still held in memory may
		// be needed to answer for an acknowledged write.
		rss, _ := srv.stop(syscall.SIGKILL)
		r.metrics["peak_rss_mb"] = rss
		closeConns(conns)
		killed := time.Now()
		srv2, err := startServe(ctx, bin, filepath.Join(dir, "serve.restart.log"), serveArgs(w, "", diskDir)...)
		if err != nil {
			return r, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		defer func() { srv2.stop(syscall.SIGKILL) }()
		r.counts.recoverS = time.Since(killed).Seconds()
		held, disk2, err := fetchStatus(srv2.base)
		if err != nil {
			return r, err
		}
		r.counts.walReplayed = disk2.WalReplayed
		if want := w.preload + w.warm + w.ops; held != want {
			lost = abs(want - held)
			r.notes = append(r.notes, fmt.Sprintf("after SIGKILL the server holds %d profiles, %d were acknowledged", held, want))
		}
		after, _ = closedLoop(ctx, conns, srv2.base, afterBodies, postResolve, false)
		if _, err := srv2.stop(syscall.SIGTERM); err != nil {
			lost++
			r.notes = append(r.notes, fmt.Sprintf("restarted cmd/serve did not drain cleanly: %v", err))
		}
	} else {
		rss, err := srv.stop(syscall.SIGTERM)
		r.metrics["peak_rss_mb"] = rss
		if err != nil {
			lost++
			r.notes = append(r.notes, fmt.Sprintf("cmd/serve did not drain cleanly: %v", err))
		}
	}

	// Everything acknowledged, in any phase, goes through one oracle.
	var ops []served
	var lat, first []float64
	collect := func(bodies [][]byte, results []opResult, timedPhase bool) {
		for i, res := range results {
			r.attempted++
			s, err := servedOf(bodies[i], res)
			if err != nil {
				r.failed++
				if len(r.notes) < 5 {
					r.notes = append(r.notes, err.Error())
				}
				continue
			}
			ops = append(ops, s)
			if timedPhase {
				lat = append(lat, ms(res.latency))
				first = append(first, ms(res.firstResult))
			}
		}
	}
	collect(warmBodies, warm, false)
	collect(timedBodies, timed, true)
	collect(afterBodies, after, false)
	wrong, notes := verify(in.snapshot, ops)
	r.failed += wrong + lost
	r.notes = append(r.notes, notes...)

	r.latencies = lat
	r.metrics["op_p50_ms"] = percentile(lat, 0.50)
	r.metrics["op_p99_ms"] = percentile(lat, 0.99)
	r.metrics["first_result_p50_ms"] = percentile(first, 0.50)
	r.metrics["throughput_ops"] = float64(len(lat)) / wall.Seconds()
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// dirBytes is the total size of the regular files under root.
func dirBytes(root string) int64 {
	var total int64
	filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil // files vanish under a live compaction; count what is there
	})
	return total
}
