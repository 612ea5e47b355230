package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"metablocking/internal/budget"
	"metablocking/internal/dataio"
	"metablocking/internal/diskindex"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
	"metablocking/internal/server"
	"metablocking/internal/shard"
	"metablocking/internal/store"
)

// Root span names of the three passes.
const (
	spanClient   = "client"           // L0: request sent → reply read
	spanHandler  = "server.handler"   // L0: the HTTP handler, under its client span
	spanHTTPOut  = "http.write"       // L0: ResponseWriter.Write / Flush, under the handler span
	spanResolve  = "server.resolve"   // L1: Server.Resolve
	spanResume   = "budget.resume"    // L1: Server.Resume
	spanIndex    = "index.resolve"    // L2: Resolver.Resolve or Group.Resolve
	spanIndexWAL = "index.syncwal"    // L2: Group.SyncWAL, the group-commit barrier
	spanIndexRes = "index.resume"     // L2: PeekExcluding
	spanDecode   = "dataio.parse"     // leaf: dataio.ParseProfileJSON
	spanEncode   = "json.encode"      // leaf: json.Marshal(server.ResolveResponse)
	spanKeys     = "incremental.keys" // leaf: incremental.Keyer.Keys
)

// traceSummary is the bookkeeping of a traced invocation.
type traceSummary struct {
	attempted, failed int
	notes             []string
	digest            string
}

func (t *traceSummary) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// cmd/serve's defaults for -shard-queue and -disk-compact-after, which
// both serverConfig and the L2 pass's own coordinator need.
const (
	shardQueueDepth  = 2
	diskCompactAfter = 4
)

// serverConfig is the configuration cmd/serve builds from the workload's
// flags and its own defaults (cmd/serve/main.go). It is a copy the
// traced passes need because they call server.New themselves;
// TestTracedPassesRunTheBinarysConfiguration holds it, and the L2
// coordinator, to what the binary reports at /v1/admin/status.
func serverConfig(w workload, diskDir string) server.Config {
	cfg := server.Config{
		Resolver:         resolverConfig(w.k),
		Shards:           w.shards,
		ShardQueueDepth:  shardQueueDepth,
		DiskDir:          diskDir,
		MemtableBudget:   32 << 20,
		DiskCacheBytes:   8 << 20,
		DiskCompactAfter: diskCompactAfter,
		WALSync:          server.WALSyncAlways,
		WALSyncInterval:  100 * time.Millisecond,
		BatchWindow:      2 * time.Millisecond,
		MaxBatch:         64,
		QueueDepth:       1024,
		RetryAfter:       time.Second,
		RequestTimeout:   5 * time.Second,
		BreakerThreshold: 5,
		BreakerCooldown:  time.Second,
		Tiers: []budget.Tier{
			{Name: budget.TierInteractive, Slots: 64, DefaultBudget: 250 * time.Millisecond},
			{Name: budget.TierBatch, Slots: 8, DefaultBudget: 5 * time.Second},
		},
		StreamBatch: 16,
	}
	if w.batchMax > 0 {
		cfg.MaxBatch = w.batchMax
	}
	if w.disk {
		cfg.MemtableBudget = w.memtable
		cfg.DiskCacheBytes = w.cache
	}
	return cfg
}

// pages is how many requests a stream over n ranked candidates takes: one
// per page, and one even for an empty neighbourhood.
func pages(n int) int {
	if n <= streamPage {
		return 1
	}
	return (n + streamPage - 1) / streamPage
}

// traceServe produces a serve workload's per-layer metrics. One
// end-to-end round with the real binary gives the counts the child
// publishes and the tracing-off latencies; then the first traceOps
// operations are replayed three times in-process on identically
// preloaded state, each pass one layer further in:
//
//	L0  loopback HTTP to server.New(cfg).Handler() behind a timing
//	    middleware: client span ⊃ handler span
//	L1  Server.Resolve / Server.Resume called directly
//	L2  the index alone: incremental.Resolver, or a shard.Group whose
//	    backends are timing decorators
//
// and the leaf calls are timed standalone on the same payloads. L1 runs
// last: its callers are paced by what L0 and the leaves measured.
func traceServe(ctx context.Context, e *env, w workload, spansOut string) (map[string]float64, traceSummary, error) {
	var ts traceSummary
	m := map[string]float64{}

	in, err := prepareServe(e, w)
	if err != nil {
		return nil, ts, err
	}
	r, err := serveRound(ctx, e, w, in, 0)
	if err != nil {
		return nil, ts, err
	}
	ts.attempted, ts.failed, ts.notes, ts.digest = r.attempted, r.failed, r.notes, r.digest

	dir, err := e.roundDir(w, 1)
	if err != nil {
		return nil, ts, err
	}
	defer os.RemoveAll(dir)
	n := w.warm + w.traceOps
	bodies := in.bodies[:n]
	profiles := make([]entity.Profile, n)
	for i, b := range bodies {
		if profiles[i], err = dataio.ParseProfileJSON(b); err != nil {
			return nil, ts, err
		}
	}
	tp := &tracePass{w: w, in: in, dir: dir, bodies: bodies, profiles: profiles, sum: &ts}

	l0, err := tp.passL0(ctx)
	if err != nil {
		return nil, ts, fmt.Errorf("L0: %w", err)
	}
	l2, replies, err := tp.passL2(m)
	if err != nil {
		return nil, ts, fmt.Errorf("L2: %w", err)
	}
	leaves := tp.leaves(replies)
	m["server.decode_us"] = median(durationsUS(leaves, spanDecode))
	m["server.encode_us"] = median(durationsUS(leaves, spanEncode))
	m["incremental.keys_us"] = median(durationsUS(leaves, spanKeys))
	m["server.http_self_us"] = median(selfUSOf(l0, spanClient))

	// L1 twice. A lone caller first: Server.Resolve with nobody to queue
	// behind. Then the closed loop's two callers, each idling between
	// calls for as long as a request spends outside Server.Resolve — the
	// L0 client latency minus the lone caller's — so the batcher sees the
	// load it saw in L0. With no pause two callers queue behind each
	// other's index pass and the wait reads several times too high.
	requests := 0
	for _, rp := range replies {
		requests += tp.hops(len(rp.cands))
	}
	hops := float64(requests) / float64(len(replies))
	clientUS := median(perOpUS(l0, spanClient))
	lone, err := tp.passL1(ctx, m, 1, 0)
	if err != nil {
		return nil, ts, fmt.Errorf("L1, one caller: %w", err)
	}
	think := max(0, clientUS-median(perOpUS(lone, spanResolve, spanResume))) / hops
	l1, err := tp.passL1(ctx, m, clients, time.Duration(think*float64(time.Microsecond)))
	if err != nil {
		return nil, ts, fmt.Errorf("L1: %w", err)
	}
	if spansOut != "" {
		for _, p := range []struct {
			name  string
			spans []span
		}{{"L0", l0}, {"L1", l1}, {"L2", l2}, {"leaf", leaves}} {
			if err := writeSpans(spansOut, w.name+"/"+p.name, p.spans); err != nil {
				return nil, ts, err
			}
		}
	}

	// L0: the client sees the handler plus transport and its own codec.
	m["server.handler_us"] = median(perOpUS(l0, spanHandler))

	// L1 and L2, per operation: a stream is its resolve plus its resumes.
	l1US := median(perOpUS(l1, spanResolve, spanResume))
	l2US := median(perOpUS(l2, spanIndex, spanIndexWAL, spanIndexRes))
	m["server.resolve_us"] = median(durationsUS(l1, spanResolve))
	m["budget.resume_us"] = median(durationsUS(l1, spanResume))
	m["server.batch_wait_us"] = l1US - l2US
	// What the handler does besides the calls the harness can time on
	// their own: mux, metrics middleware, body read, and for a stream the
	// budget contract and cursor signing.
	m["server.write_us"] = median(perOpUS(l0, spanHTTPOut))
	m["server.handler_self_us"] = m["server.handler_us"] - hops*m["server.decode_us"] - m["server.encode_us"] - l1US - m["server.write_us"]

	indexUS := median(durationsUS(l2, spanIndex))
	if w.shards > 1 || w.disk {
		m["shard.resolve_us"] = indexUS
		m["shard.coord_self_us"] = median(selfUSOf(l2, spanIndex))
		gmax, gsum, skew := gatherShape(l2)
		m["shard.gather_max_us"], m["shard.gather_sum_us"], m["shard.gather_skew"] = gmax, gsum, skew
		layer := "incremental"
		if w.disk {
			layer = "diskindex"
			m["diskindex.syncwal_us"] = median(durationsUS(l2, spanIndexWAL))
			m["diskindex.seal_ms"] = sum(durationsUS(l2, spanSeal)) / 1e3
			m["diskindex.compact_ms"] = sum(durationsUS(l2, spanCompact)) / 1e3
			m["diskindex.stall_max_ms"] = stallMaxMS(l2)
		}
		m[layer+".gather_us"] = median(durationsUS(l2, spanGather))
		m[layer+".commit_us"] = median(durationsUS(l2, spanCommit))
	} else {
		m["incremental.resolve_us"] = indexUS
	}

	// What the layers account for, against the traced pass's own
	// end-to-end median, and that median against the real binary's over
	// the same operations with tracing off. A stream decodes its body
	// once per request.
	layers := m["server.http_self_us"] + hops*m["server.decode_us"] + m["server.encode_us"] +
		m["server.write_us"] + m["server.batch_wait_us"] + l2US
	m["trace.sum_over_e2e"] = ratio(layers, clientUS)
	m["trace.e2e_ratio"] = ratio(clientUS/1e3, median(r.latencies[:min(w.traceOps, len(r.latencies))]))

	childMetrics(m, w, r.counts)
	return m, ts, nil
}

// childMetrics derives the count metrics from what the end-to-end child
// published before it was stopped.
func childMetrics(m map[string]float64, w workload, c childCounts) {
	ctr := func(name string) float64 { return float64(c.counters[name]) }
	ops := float64(w.warm + w.ops)
	m["server.profiles_per_batch"] = ratio(ctr("server.batch_profiles"), ctr("server.batches"))
	m["server.rejected"] = ctr("server.rejected_full") + ctr("server.rejected_draining")
	m["server.resolve_failures"] = ctr("server.resolve_failures")
	m["shard.partial_gathers"] = ctr("shard.partial_gathers")
	m["shard.failures"] = ctr("shard.failures")
	if w.stream {
		// budget.streams counts every streamed response, resumed or not.
		begun := ctr("budget.streams") - ctr("budget.cursor_resumes")
		m["budget.hops_per_stream"] = ratio(ctr("budget.streams"), begun)
		m["budget.emitted_per_stream"] = ratio(ctr("budget.comparisons"), begun)
		m["budget.gathered_per_emitted"] = ratio(ctr("budget.gathered"), ctr("budget.comparisons"))
	}
	if w.disk {
		d := c.disk
		m["diskindex.seals"] = float64(d.Seals)
		m["diskindex.compactions"] = float64(d.Compactions)
		m["diskindex.cache_hit_ratio"] = ratio(float64(d.CacheHits), float64(d.CacheHits+d.PageReads))
		m["diskindex.page_reads_per_resolve"] = ratio(float64(d.PageReads), ops)
		m["store.wal_syncs_per_commit"] = ratio(float64(d.WalSyncs), float64(d.WalAppends))
		m["store.wal_sync_mean_us"] = ratio(float64(d.WalSyncTotalNs)/1e3, float64(d.WalSyncs))
		m["store.disk_bytes_per_profile"] = ratio(float64(c.diskDirBytes), float64(c.profiles))
		m["store.recover_s"] = c.recoverS
		m["store.wal_replayed"] = float64(c.walReplayed)
	}
}

// tracePass is what the three passes share.
type tracePass struct {
	w        workload
	in       *serveInputs
	dir      string
	bodies   [][]byte
	profiles []entity.Profile
	sum      *traceSummary
}

// newServer builds the in-process server of a pass on freshly preloaded
// state and returns how long the preload took.
func (tp *tracePass) newServer(pass string) (*server.Server, time.Duration, error) {
	diskDir := ""
	if tp.w.disk {
		diskDir = filepath.Join(tp.dir, "index."+pass)
	}
	srv, err := server.New(serverConfig(tp.w, diskDir))
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if _, err := srv.ReloadFile(tp.in.snapshotPath); err != nil {
		srv.Close()
		return nil, 0, err
	}
	return srv, time.Since(start), nil
}

// passL0 drives the handler over loopback HTTP with the closed loop the
// end-to-end run uses. The middleware times the handler; the client span
// is the latency the client observed, and adopts its requests' handler
// spans by operation.
func (tp *tracePass) passL0(ctx context.Context) ([]span, error) {
	srv, _, err := tp.newServer("l0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	rec := newRecorder()
	inner := srv.Handler()
	handler := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		op := -1
		if v := req.Header.Get(opHeader); v != "" {
			op, _ = strconv.Atoi(v)
		}
		id := rec.begin(spanHandler, -1, op)
		inner.ServeHTTP(&timedWriter{ResponseWriter: rw, rec: rec, parent: id, op: op}, req)
		rec.end(id)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Shutdown(context.Background())
		<-served
	}()
	base := "http://" + ln.Addr().String()
	conns := newConns()
	defer closeConns(conns)
	var op opFunc = postResolve
	if tp.w.stream {
		op = followStream
	}
	closedLoop(ctx, conns, base, tp.bodies[:tp.w.warm], op, false)
	rec.on.Store(true)
	results, _ := closedLoop(ctx, conns, base, tp.bodies[tp.w.warm:], op, true)
	rec.on.Store(false)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	spans := rec.spans
	clientOf := map[int]int{}
	for i, res := range results {
		tp.sum.attempted++
		if res.err != nil {
			tp.sum.fail("L0 operation %d: %v", i, res.err)
			continue
		}
		start := int64(res.start.Sub(rec.epoch))
		spans = append(spans, span{Name: spanClient, Start: start, End: start + int64(res.latency), Parent: -1, Op: i})
		clientOf[i] = len(spans) - 1
	}
	for i := range spans {
		if spans[i].Name == spanHandler {
			if c, ok := clientOf[spans[i].Op]; ok {
				spans[i].Parent = c
			}
		}
	}
	return spans, nil
}

// timedWriter files every Write and Flush the handler makes as a child
// span of its handler span. http.ResponseWriter and http.Flusher are the
// seam at which the handler hands bytes to net/http and the socket; a
// stream flushes once per frame, so this is where its transport time sits
// (a plain reply is written once and leaves after the handler returned).
type timedWriter struct {
	http.ResponseWriter
	rec        *recorder
	parent, op int
}

func (t *timedWriter) Write(b []byte) (int, error) {
	id := t.rec.begin(spanHTTPOut, t.parent, t.op)
	defer t.rec.end(id)
	return t.ResponseWriter.Write(b)
}

func (t *timedWriter) Flush() {
	id := t.rec.begin(spanHTTPOut, t.parent, t.op)
	defer t.rec.end(id)
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the connection's own writer.
func (t *timedWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }

// reply is what the L2 pass keeps of an answer: the encode leaf marshals
// it, and its length says how many requests a stream takes.
type reply struct {
	id    entity.ID
	cands []incremental.Candidate
}

// passL1 calls Server.Resolve (and, for a stream, Server.Resume once per
// further page) from `callers` closed-loop callers that idle `think`
// after each call, without HTTP. It also reads the runtime's allocation and GC-pause counters
// around the traced section: here they are the server's own, with no
// HTTP client in the process doing its share.
func (tp *tracePass) passL1(ctx context.Context, m map[string]float64, callers int, think time.Duration) ([]span, error) {
	srv, load, err := tp.newServer("l1")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	m["store.snapshot_load_s"] = load.Seconds()
	rec := newRecorder()
	var failed atomic.Int64
	do := func(_, i int) {
		p := tp.profiles[i]
		id := rec.begin(spanResolve, -1, i)
		res, err := srv.Resolve(ctx, p)
		rec.end(id)
		idle(think)
		if err != nil || res.Degraded {
			failed.Add(1)
			return
		}
		for h := 1; h < tp.hops(len(res.Candidates)); h++ {
			id := rec.begin(spanResume, -1, i)
			_, err := srv.Resume(ctx, p, res.ID)
			rec.end(id)
			idle(think)
			if err != nil {
				failed.Add(1)
				return
			}
		}
	}
	parallelLoop(ctx, tp.w.warm, callers, do)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec.on.Store(true)
	parallelLoop(ctx, tp.w.traceOps, callers, func(w, i int) { do(w, tp.w.warm+i) })
	rec.on.Store(false)
	runtime.ReadMemStats(&after)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tp.sum.attempted += len(tp.profiles)
	if n := failed.Load(); n > 0 {
		tp.sum.failed += int(n)
		tp.sum.notes = append(tp.sum.notes, fmt.Sprintf("L1: %d operations failed or were served degraded", n))
	}
	m["runtime.mallocs_per_op"] = ratio(float64(after.Mallocs-before.Mallocs), float64(tp.w.traceOps))
	m["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	return rec.spans, nil
}

// idle passes d without blocking the goroutine on a timer: a sleep of
// tens of µs overshoots by more than it lasts.
func idle(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		runtime.Gosched()
	}
}

// hops is how many requests the workload's operation makes for a
// neighbourhood of n candidates: one, or a stream's pages.
func (tp *tracePass) hops(n int) int {
	if !tp.w.stream {
		return 1
	}
	return pages(n)
}

// l2Index is the index alone, as both shapes offer it.
type l2Index interface {
	Resolve(entity.Profile) (incremental.BatchResult, error)
	PeekExcluding(entity.Profile, entity.ID) ([]incremental.Candidate, error)
	Close() error
}

// passL2 calls the index from one goroutine, with no server in front: a
// monolithic incremental.Resolver, or a shard.Group whose backends are
// timing decorators, so every per-shard Gather, Commit, SyncWAL and Seal
// is a child span of the span opened around the Group call. Its answers
// are checked against a plain single-index replay, and its counts repeat
// exactly for a seed.
func (tp *tracePass) passL2(m map[string]float64) ([]span, []reply, error) {
	w := tp.w
	rec := newRecorder()
	mono, err := incremental.FromSnapshot(tp.in.snapshot)
	if err != nil {
		return nil, nil, err
	}
	var idx l2Index = mono
	group, err := newL2Group(w, tp.in.snapshot, filepath.Join(tp.dir, "index.l2"), rec)
	if err != nil {
		return nil, nil, err
	}
	if group != nil {
		idx = group
	}
	defer idx.Close()
	// Sharded answers are checked against the monolith; the monolith is
	// its own reference.
	var oracle *incremental.Resolver
	if group != nil {
		oracle = mono
	}

	var candidates int64
	replies := make([]reply, 0, w.traceOps)
	for i, p := range tp.profiles {
		traced := i >= w.warm
		rec.on.Store(traced)
		tp.sum.attempted++
		id := rec.root(spanIndex, i)
		res, err := idx.Resolve(p)
		rec.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("operation %d: %w", i, err)
		}
		if traced {
			replies = append(replies, reply{id: res.ID, cands: res.Candidates})
			candidates += int64(len(res.Candidates))
			if oracle == nil {
				rec.gathered.Add(int64(mono.LastWeighed()))
			}
		}
		if oracle != nil {
			want, _ := oracle.Resolve(p)
			if want.ID != res.ID || !slices.Equal(res.Candidates, want.Candidates) {
				tp.sum.fail("L2 operation %d: the decorated group answers differently from the single index", i)
			}
		}
		if w.disk {
			id := rec.root(spanIndexWAL, i)
			err := group.SyncWAL()
			rec.end(id)
			if err != nil {
				tp.sum.fail("L2 operation %d: SyncWAL: %v", i, err)
			}
		}
		if w.stream {
			for h := 1; h < pages(len(res.Candidates)); h++ {
				id := rec.root(spanIndexRes, i)
				again, err := idx.PeekExcluding(p, res.ID)
				rec.end(id)
				if err != nil || !slices.Equal(again, res.Candidates) {
					tp.sum.fail("L2 operation %d: resume gather differs from the resolve it resumes (%v)", i, err)
				}
			}
		}
	}
	rec.on.Store(false)
	if w.disk {
		// The live logs hold exactly the commits since the last seal.
		var walBytes int64
		for _, st := range group.Stats() {
			if st.Disk != nil {
				walBytes += st.Disk.WalBytes
			}
		}
		m["store.wal_bytes_per_profile"] = ratio(float64(walBytes), float64(rec.sinceSeal.Load()))
	}
	m["incremental.weighed_per_resolve"] = ratio(float64(rec.gathered.Load()), float64(w.traceOps))
	m["incremental.candidates_per_resolve"] = ratio(float64(candidates), float64(w.traceOps))
	return rec.spans, replies, nil
}

// newL2Group builds the coordinator a sharded or disk workload's server
// holds, preloaded from snap, with every partition behind a timing
// decorator; nil for a monolith workload, whose index is the plain
// incremental.Resolver.
func newL2Group(w workload, snap *incremental.Snapshot, diskDir string, rec *recorder) (*shard.Group, error) {
	switch {
	case w.disk:
		return newDiskGroup(w, snap, diskDir, rec)
	case w.shards > 1:
		return shard.FromSnapshot(snap, shard.Config{
			Shards:     w.shards,
			QueueDepth: shardQueueDepth,
			Backends: func(k int) (shard.Backend, error) {
				part := incremental.NewPartition(snap.Config.Scheme, w.shards, k)
				return &timedBackend{inner: part, rec: rec}, nil
			},
		})
	}
	return nil, nil
}

// newDiskGroup builds the out-of-core group the way the server's reload
// does (internal/server/disk.go: recover the directory, open one
// diskindex.Partition per shard with the log deferred, replay the
// snapshot through the coordinator, checkpoint), with each partition
// behind a timing decorator.
func newDiskGroup(w workload, snap *incremental.Snapshot, dir string, rec *recorder) (*shard.Group, error) {
	layout, err := store.RecoverDiskDir(dir, w.shards)
	if err != nil {
		return nil, err
	}
	if layout.Checkpoint != 0 {
		layout.Close()
		return nil, errors.New("trace directory is not fresh")
	}
	parts := make([]*diskindex.Partition, layout.Shards)
	for k, state := range layout.Shard {
		parts[k], err = diskindex.Open(diskindex.Options{
			Config: snap.Config, Shards: layout.Shards, Index: k, State: state,
			Checkpoint: layout.Checkpoint, Size: layout.Size,
			CacheBytes: w.cache, CompactAfter: diskCompactAfter, WAL: true, WALDefer: true,
		})
		if err != nil {
			for _, p := range parts[:k] {
				p.Close()
			}
			return nil, err
		}
	}
	g, err := shard.FromSnapshot(snap, shard.Config{
		Shards:         layout.Shards,
		QueueDepth:     shardQueueDepth,
		MemtableBudget: w.memtable,
		Checkpoint:     layout.MaxCheckpoint,
		Backends: func(k int) (shard.Backend, error) {
			return &timedDiskBackend{
				timedBackend: timedBackend{inner: parts[k], rec: rec},
				disk:         parts[k],
			}, nil
		},
	})
	if err != nil {
		for _, p := range parts {
			p.Close()
		}
		return nil, err
	}
	if err := g.Checkpoint(); err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

// leaves times the calls every request passes through on its way in and
// out, standalone, on the payloads the passes used.
func (tp *tracePass) leaves(replies []reply) []span {
	rec := newRecorder()
	rec.on.Store(true)
	var keyer incremental.Keyer
	for i := 0; i < tp.w.traceOps; i++ {
		body, p := tp.bodies[tp.w.warm+i], tp.profiles[tp.w.warm+i]
		id := rec.begin(spanDecode, -1, i)
		dataio.ParseProfileJSON(body)
		rec.end(id)

		id = rec.begin(spanKeys, -1, i)
		keyer.Keys(p)
		rec.end(id)

		reply := server.ResolveResponse{ID: int(replies[i].id), Candidates: make([]server.CandidateJSON, len(replies[i].cands))}
		for j, c := range replies[i].cands {
			reply.Candidates[j] = server.CandidateJSON{ID: int(c.ID), Weight: c.Weight}
		}
		id = rec.begin(spanEncode, -1, i)
		json.Marshal(reply)
		rec.end(id)
	}
	return rec.spans
}

// selfUSOf returns the self times in µs of the spans with the given name.
func selfUSOf(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[i])/1e3)
		}
	}
	return out
}

// gatherShape summarises the per-shard gathers of each Group.Resolve:
// the median slowest gather, the median total, and the median of
// slowest ÷ mean (1 = perfectly even shards).
func gatherShape(spans []span) (maxUS, sumUS, skew float64) {
	type agg struct{ max, sum, n float64 }
	byParent := map[int]*agg{}
	for _, s := range spans {
		if s.Name != spanGather || s.Parent < 0 || spans[s.Parent].Name != spanIndex {
			continue
		}
		a := byParent[s.Parent]
		if a == nil {
			a = &agg{}
			byParent[s.Parent] = a
		}
		d := float64(s.dur()) / 1e3
		a.max = max(a.max, d)
		a.sum += d
		a.n++
	}
	var maxes, sums, skews []float64
	for _, a := range byParent {
		maxes = append(maxes, a.max)
		sums = append(sums, a.sum)
		skews = append(skews, ratio(a.max, a.sum/a.n))
	}
	return median(maxes), median(sums), median(skews)
}

// stallMaxMS is the longest foreground index call that overlapped a seal
// or a compaction.
func stallMaxMS(spans []span) float64 {
	var worst int64
	for _, bg := range spans {
		if bg.Name != spanSeal && bg.Name != spanCompact {
			continue
		}
		for _, fg := range spans {
			if fg.Parent == -1 && fg.Name != spanCompact && fg.Start < bg.End && bg.Start < fg.End {
				worst = max(worst, fg.dur())
			}
		}
	}
	return float64(worst) / 1e6
}
