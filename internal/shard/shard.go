// Package shard runs the incremental entity index as N hash-partitions
// behind one scatter-gather coordinator — the horizontal axis of ROADMAP
// item 1, and with core.PruneParallel the living form of the parallel
// meta-blocking direction the paper points to (ref [20]).
//
// Each partition (incremental.Partition) is owned by a single-writer
// actor goroutine with a bounded mailbox gated by a token channel, so
// admission control is per shard — except a one-shard in-memory group,
// which has nothing to overlap and runs on the caller's goroutine (disk
// partitions compact on their actor, so they keep one). The coordinator
// (Group) serializes arrivals — it is the serving layer's single writer —
// and runs each resolve in two phases:
//
//  1. Scatter-gather (read-only): the coordinator derives the arrival's
//     block keys and the global per-key ScanCount increments (block
//     cardinalities and Block Purging are global decisions a shard cannot
//     make alone), fans the gather out to every live shard, and merges
//     the per-shard weighted neighbors with the exact kernels of
//     incremental.Merger — bit-identical to a single index because every
//     candidate's whole accumulation happens on its home shard in the
//     same key order with the same operand values.
//  2. Commit: only after every gather succeeded does the coordinator
//     assign the next global ID and commit the profile to its home shard
//     (ShardOf = id mod N), then update the global block cardinalities.
//     A failed gather aborts before any state changes, so the ID
//     sequence never skips and batched ≡ serial equivalence holds
//     exactly at every shard count.
//
// Failures are contained per shard: an injected fault or a panic inside
// an actor is recovered into an error for that resolve only. After
// DownAfter consecutive failures a shard is marked down — gathers skip
// it (answers become partial, counted by shard.partial_gathers) and
// resolves homed on it are refused with ErrShardDown, which the serving
// layer's circuit breaker turns into global degraded mode. A reload
// builds a fresh group and clears the marks.
package shard

import (
	"errors"
	"fmt"
	"strconv"

	"metablocking/internal/core"
	"metablocking/internal/entity"
	"metablocking/internal/fault"
	"metablocking/internal/incremental"
	"metablocking/internal/obs"
	"metablocking/internal/par"
)

// Sentinel errors, matchable with errors.Is across the serving layer.
var (
	// ErrShardBusy reports a shard whose admission queue had no free
	// token — the caller should shed or retry, like a full server queue.
	ErrShardBusy = errors.New("shard: admission queue full")
	// ErrShardDown reports a resolve refused because the home shard of
	// the would-be ID is marked down.
	ErrShardDown = errors.New("shard: shard marked down")
	// ErrClosed reports use of a closed group.
	ErrClosed = errors.New("shard: group closed")
)

// Metric names registered on the group's obs.Metrics.
const (
	// CtrFailures counts per-shard operation failures (faults, panics).
	CtrFailures = "shard.failures"
	// CtrPartialGathers counts resolves answered without one or more
	// down shards — results are correct for the live subset but partial.
	CtrPartialGathers = "shard.partial_gathers"
	// CtrCheckpointFailures counts group checkpoints that failed on at
	// least one shard (and therefore did not advance the checkpoint id).
	CtrCheckpointFailures = "shard.checkpoint_failures"
	// CtrCompactFailures counts background compactions that errored or
	// were vetoed by an injected fault.
	CtrCompactFailures = "shard.compact_failures"
	// GaugeDown tracks how many shards are currently marked down.
	GaugeDown = "shard.down"
)

// GatherSite returns the fault-injection site name of shard i's gather
// phase (see internal/fault; armed via cmd/serve -fault).
func GatherSite(i int) string { return "shard." + strconv.Itoa(i) + ".gather" }

// CommitSite returns the fault-injection site name of shard i's commit
// phase.
func CommitSite(i int) string { return "shard." + strconv.Itoa(i) + ".commit" }

// CompactSite returns the fault-injection site name of shard i's
// background compaction, checked before the merge starts — a delay spec
// pins the compaction window open for chaos tests, an error spec vetoes
// the compaction entirely.
func CompactSite(i int) string { return "shard." + strconv.Itoa(i) + ".compact" }

// WalAppendSite returns the fault-injection site name of shard i's
// write-ahead-log append — checked before the record is framed, so an
// error spec fails the commit with the memtable untouched.
func WalAppendSite(i int) string { return "shard." + strconv.Itoa(i) + ".wal.append" }

// WalSyncSite returns the fault-injection site name of shard i's
// write-ahead-log fsync — checked only when unsynced records exist, so
// a delay spec deterministically pins the group-commit window open for
// chaos tests.
func WalSyncSite(i int) string { return "shard." + strconv.Itoa(i) + ".wal.sync" }

// WalRotateSite returns the fault-injection site name of shard i's
// write-ahead-log rotation — the new-generation creation a seal performs
// before its manifest commits.
func WalRotateSite(i int) string { return "shard." + strconv.Itoa(i) + ".wal.rotate" }

// Backend is one shard's partition implementation — the contract the
// actor drives. *incremental.Partition is the in-memory implementation;
// internal/diskindex provides the out-of-core one. Backends are
// single-writer: only the owning actor touches them after start.
type Backend interface {
	// Len returns the number of profiles homed on the partition.
	Len() int
	// Blocks returns the number of distinct block keys present.
	Blocks() int
	// Gather runs the ScanCount accumulation for one arrival (see
	// incremental.Partition.Gather). Implementations may ignore
	// maxWeighted and return every weighted neighbor — a superset the
	// coordinator's exact top-K merge reduces identically.
	Gather(keys []string, incs []float64, bi int, nb float64, maxWeighted int, dst []incremental.ShardCand) []incremental.ShardCand
	// Commit homes a newly assigned profile on the partition.
	Commit(id entity.ID, p entity.Profile, keys []string) error
	// Snapshot deep-copies the partition in canonical segment form.
	Snapshot() *incremental.PartitionSnapshot
}

// Maintainer is the optional disk-backed extension of Backend: sealing
// the memtable into a durable generation and merging sealed segments in
// the background. The coordinator checkpoints all Maintainer backends
// together so every shard's manifests cut the global ID sequence at the
// same point.
type Maintainer interface {
	// PendingBytes estimates the unsealed memtable footprint — what the
	// coordinator compares against Config.MemtableBudget.
	PendingBytes() int
	// Seal persists the memtable as a new segment (if non-empty) and
	// commits a manifest under the coordinator-assigned checkpoint id at
	// the given global resolver size.
	Seal(checkpoint uint64, size int) error
	// MaybeCompact merges sealed segments when the backend's policy
	// triggers, reporting whether a compaction ran. Called by the actor
	// off the request path, after a seal's reply is sent.
	MaybeCompact() (bool, error)
	// SyncWAL fsyncs the backend's write-ahead log — the group-commit
	// barrier the serving layer invokes per micro-batch (sync policy
	// "always") or on a timer ("interval"). A no-op when the WAL is
	// disabled or already clean.
	SyncWAL() error
	// DiskStats reports the backend's disk-tier counters.
	DiskStats() DiskStats
}

// DiskStats is one disk-backed shard's tier snapshot, served by
// GET /v1/admin/status.
type DiskStats struct {
	// Segments is the current sealed segment count.
	Segments int `json:"segments"`
	// MemtableBytes is the estimated unsealed memtable footprint.
	MemtableBytes int `json:"memtable_bytes"`
	// Checkpoint is the last durable checkpoint id.
	Checkpoint uint64 `json:"checkpoint"`
	// Seals and Compactions count manifest commits by cause.
	Seals       int64 `json:"seals"`
	Compactions int64 `json:"compactions"`
	// PageReads and CacheHits expose the block cache's effectiveness.
	PageReads int64 `json:"page_reads"`
	CacheHits int64 `json:"cache_hits"`
	// WalBytes is the live write-ahead log's size; 0 when disabled.
	WalBytes int64 `json:"wal_bytes,omitempty"`
	// WalAppends counts records logged since open.
	WalAppends int64 `json:"wal_appends,omitempty"`
	// WalReplayed and WalTruncated report the last recovery: records
	// replayed on top of the checkpoint and frames dropped as torn,
	// undecodable, or beyond the contiguous acknowledged run.
	WalReplayed  int64 `json:"wal_replayed,omitempty"`
	WalTruncated int64 `json:"wal_truncated,omitempty"`
	// WalSyncs counts fsync barriers; WalSyncLastNs and WalSyncTotalNs
	// expose their latency (last and cumulative).
	WalSyncs       int64 `json:"wal_syncs,omitempty"`
	WalSyncLastNs  int64 `json:"wal_sync_last_ns,omitempty"`
	WalSyncTotalNs int64 `json:"wal_sync_total_ns,omitempty"`
}

// Config parameterizes a group. The zero value of every field except
// Resolver is usable; defaults are applied by New.
type Config struct {
	// Resolver is the index configuration every partition shares —
	// scheme, K, MaxBlockSize, MinTokenLength. Defaults follow
	// incremental.NewResolver (MaxBlockSize 1000).
	Resolver incremental.Config
	// Shards is the partition count. Default 1.
	Shards int
	// QueueDepth bounds each shard's admission queue (mailbox tokens).
	// Default 2.
	QueueDepth int
	// DownAfter is how many consecutive failures mark a shard down.
	// Default 3.
	DownAfter int
	// Fault injects failures at the per-shard gather/commit/compact
	// sites. Nil means no injection.
	Fault *fault.Injector
	// Metrics receives the shard.* counters and gauges. Nil means a
	// private registry.
	Metrics *obs.Metrics
	// Backends, when non-nil, supplies each shard's partition
	// implementation — the hook the out-of-core index plugs in through.
	// Nil uses in-memory incremental.Partitions.
	Backends func(shard int) (Backend, error)
	// MemtableBudget, when positive and the backends are Maintainers,
	// auto-checkpoints the group as soon as any shard's pending memtable
	// bytes exceed it — the knob behind cmd/serve -memtable-budget.
	MemtableBudget int
	// Checkpoint seeds the checkpoint counter for restore paths, so a
	// recovered or reloaded group continues its directory's lineage
	// above every id already on disk.
	Checkpoint uint64
	// OnGather, when non-nil, observes each live shard's gather reply as
	// it lands during a resolve: the shard index and how many weighed
	// neighbors it surfaced. This is the early-emit hook the budget-aware
	// serving layer (internal/budget) uses to account gather work per
	// request while the scatter-gather is still in flight on other
	// shards.
	OnGather func(shard, weighed int)
}

func (cfg Config) withDefaults() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	if cfg.Resolver.MaxBlockSize == 0 {
		cfg.Resolver.MaxBlockSize = 1000
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	return cfg
}

// Actor mailbox operations.
const (
	opGather = iota
	opCommit
	opSnapshot
	opStats
	opSeal
	opWalSync
)

// request is the coordinator↔actor message. Each actor owns exactly one,
// preallocated by New: the coordinator fills the inputs, submits it, and
// reads the outputs after the reply — no per-resolve allocation.
type request struct {
	op int

	// Gather inputs (read-only for the actor; keys/incs are coordinator
	// scratch, valid for the duration of the round trip).
	keys        []string
	incs        []float64
	bi          int
	nb          float64
	maxWeighted int

	// Commit inputs. Partition.Commit copies keys.
	id      entity.ID
	profile entity.Profile

	// Seal inputs (coordinator-assigned checkpoint cut).
	checkpoint uint64
	sealSize   int

	// Outputs. cands is actor-owned gather scratch, valid until the next
	// submit to the same actor; weighed counts the neighbors it weighed.
	cands    []incremental.ShardCand
	weighed  int
	snap     *incremental.PartitionSnapshot
	profiles int
	blocks   int
	// pending is the backend's memtable estimate after a commit (disk
	// backends only) — what triggers the coordinator's auto-checkpoint.
	pending int
	disk    DiskStats
	hasDisk bool
	err     error
}

// lastWeigher reports how many neighbors the last Gather weighed before
// pruning to maxWeighted; a backend without it returns them all.
type lastWeigher interface{ LastWeighed() int }

// actor is one shard's single-writer goroutine plus its admission gate,
// or, with nil channels, the same operations run inline.
type actor struct {
	back Backend
	// maint is back's disk-tier extension, nil for in-memory partitions.
	maint Maintainer

	// tokens gates admission: a submit acquires a token (non-blocking —
	// a full channel is ErrShardBusy, the token-channel backpressure
	// pattern), the coordinator releases it after consuming the reply.
	// The mailbox has the same capacity, so a token guarantees a
	// non-blocking send. All four channels are nil on an inline actor.
	tokens  chan struct{}
	mailbox chan *request
	replies chan *request
	exited  chan struct{}

	fault       *fault.Injector
	siteGather  string
	siteCommit  string
	siteCompact string
	metrics     *obs.Metrics

	// req is the coordinator's preallocated, and only, message to this actor.
	req *request
}

func (a *actor) submit(req *request) error {
	if a.mailbox == nil {
		a.handle(req)
		return nil
	}
	select {
	case a.tokens <- struct{}{}:
	default:
		return ErrShardBusy
	}
	a.mailbox <- req
	return nil
}

// receive waits for the actor's reply and releases the admission token.
func (a *actor) receive() *request {
	if a.mailbox == nil {
		return a.req
	}
	req := <-a.replies
	<-a.tokens
	return req
}

func (a *actor) loop() {
	defer close(a.exited)
	for req := range a.mailbox {
		a.handle(req)
		sealed := req.op == opSeal && req.err == nil
		a.replies <- req
		// Compaction runs after the reply — a background task of the
		// actor, off the request path: the coordinator (and the client
		// whose resolve triggered the seal) is already answered, and only
		// this shard's next operation waits on the merge. Other shards
		// keep serving.
		if sealed && a.maint != nil {
			a.compact()
		}
	}
}

// compact runs the backend's compaction policy behind its fault site,
// recovering panics so a broken merge cannot kill the actor.
func (a *actor) compact() {
	defer func() {
		if pe := par.Recovered(recover()); pe != nil {
			a.metrics.Counter(CtrCompactFailures).Inc()
		}
	}()
	if err := a.fault.Check(a.siteCompact); err != nil {
		a.metrics.Counter(CtrCompactFailures).Inc()
		return
	}
	if _, err := a.maint.MaybeCompact(); err != nil {
		a.metrics.Counter(CtrCompactFailures).Inc()
	}
}

// handle executes one operation, recovering an injected or genuine panic
// into a typed error so a broken shard cannot kill its actor — the
// isolation contract chaos tests pin down.
func (a *actor) handle(req *request) {
	req.err = nil
	defer func() {
		if pe := par.Recovered(recover()); pe != nil {
			req.err = pe
		}
	}()
	switch req.op {
	case opGather:
		if err := a.fault.Check(a.siteGather); err != nil {
			req.err = err
			return
		}
		req.cands = a.back.Gather(req.keys, req.incs, req.bi, req.nb, req.maxWeighted, req.cands)
		req.weighed = len(req.cands)
		if w, ok := a.back.(lastWeigher); ok {
			req.weighed = w.LastWeighed()
		}
	case opCommit:
		if err := a.fault.Check(a.siteCommit); err != nil {
			req.err = err
			return
		}
		req.pending = 0
		req.err = a.back.Commit(req.id, req.profile, req.keys)
		if req.err == nil && a.maint != nil {
			req.pending = a.maint.PendingBytes()
		}
	case opSnapshot:
		req.snap = a.back.Snapshot()
	case opStats:
		req.profiles = a.back.Len()
		req.blocks = a.back.Blocks()
		req.hasDisk = a.maint != nil
		if a.maint != nil {
			req.disk = a.maint.DiskStats()
		}
	case opSeal:
		if a.maint == nil {
			req.err = fmt.Errorf("shard: seal on an in-memory partition")
			return
		}
		req.err = a.maint.Seal(req.checkpoint, req.sealSize)
	case opWalSync:
		if a.maint != nil {
			req.err = a.maint.SyncWAL()
		}
	}
}

// Group coordinates N shard actors; its answers are bit-identical to
// the serial incremental.Resolver's. Like the Resolver it is not safe for
// concurrent use — the serving layer serializes calls behind its writer
// lock; the parallelism lives below, across the actors of one call.
type Group struct {
	cfg    Config
	actors []*actor

	// blockSize is the coordinator's global view of every block's
	// cardinality — the sum of the per-shard slices — from which the
	// per-key increments, Block Purging and the ECBS block count are
	// derived exactly as a single index would.
	blockSize map[string]int
	size      int

	keyer  incremental.Keyer
	merger incremental.Merger

	// checkpoint is the last checkpoint id every Maintainer backend
	// committed; maint records whether the backends are disk-backed.
	checkpoint uint64
	maint      bool

	// Per-resolve scratch.
	incs  []float64
	lists [][]incremental.ShardCand
	sent  []bool

	// Per-shard health: consecutive failures and the down marks.
	fails []int
	down  []bool

	metrics *obs.Metrics
	closed  bool
}

// New builds a group of cfg.Shards empty partitions and starts their
// actors. The caller must Close the group to stop them.
func New(cfg Config) (*Group, error) {
	if cfg.Resolver.Scheme == core.EJS {
		return nil, incremental.ErrUnsupportedScheme
	}
	g, err := newGroup(cfg.withDefaults(), cfg.Backends)
	if err != nil {
		return nil, err
	}
	g.start()
	return g, nil
}

// Restored starts a group over backends that already hold state — the
// disk-recovery path, where partitions come back from their segment
// files instead of being replayed. size and blockSize must describe the
// recovered state, and the group takes blockSize over; cfg.Checkpoint
// must sit at or above every checkpoint id on disk.
func Restored(cfg Config, size int, blockSize map[string]int) (*Group, error) {
	if cfg.Resolver.Scheme == core.EJS {
		return nil, incremental.ErrUnsupportedScheme
	}
	g, err := newGroup(cfg.withDefaults(), cfg.Backends)
	if err != nil {
		return nil, err
	}
	g.size = size
	g.blockSize = blockSize
	g.start()
	return g, nil
}

// newGroup builds the group over backend's partitions (nil: empty
// in-memory ones) without starting actor goroutines, so restore paths
// can seed partitions single-threaded first. A lone backend with no disk
// tier gets an inline actor.
func newGroup(cfg Config, backend func(int) (Backend, error)) (*Group, error) {
	if backend == nil {
		backend = func(i int) (Backend, error) {
			return incremental.NewPartition(cfg.Resolver.Scheme, cfg.Shards, i), nil
		}
	}
	g := &Group{
		cfg:        cfg,
		actors:     make([]*actor, cfg.Shards),
		blockSize:  make(map[string]int),
		keyer:      incremental.Keyer{MinTokenLength: cfg.Resolver.MinTokenLength},
		checkpoint: cfg.Checkpoint,
		lists:      make([][]incremental.ShardCand, cfg.Shards),
		sent:       make([]bool, cfg.Shards),
		fails:      make([]int, cfg.Shards),
		down:       make([]bool, cfg.Shards),
		metrics:    cfg.Metrics,
		maint:      true,
	}
	for i := range g.actors {
		back, err := backend(i)
		if err != nil {
			return nil, fmt.Errorf("shard %d backend: %w", i, err)
		}
		maint, _ := back.(Maintainer)
		g.maint = g.maint && maint != nil
		a := &actor{
			back:        back,
			maint:       maint,
			fault:       cfg.Fault,
			siteGather:  GatherSite(i),
			siteCommit:  CommitSite(i),
			siteCompact: CompactSite(i),
			metrics:     cfg.Metrics,
			req:         new(request),
		}
		if cfg.Shards > 1 || maint != nil {
			a.tokens = make(chan struct{}, cfg.QueueDepth)
			a.mailbox = make(chan *request, cfg.QueueDepth)
			a.replies = make(chan *request, 1)
			a.exited = make(chan struct{})
		}
		g.actors[i] = a
	}
	return g, nil
}

func (g *Group) start() {
	for _, a := range g.actors {
		if a.mailbox != nil {
			go a.loop()
		}
	}
}

// Size returns the number of profiles resolved so far.
func (g *Group) Size() int { return g.size }

// Config returns the effective (post-defaults) group configuration.
func (g *Group) Config() Config { return g.cfg }

// Resolve is the two-phase resolve: phase 1 scatter-gathers the
// pruned candidates, phase 2 assigns the next global ID and commits the
// profile to its home shard. On any error nothing was committed and no
// ID was consumed.
func (g *Group) Resolve(p entity.Profile) (incremental.BatchResult, error) {
	if g.closed {
		return incremental.BatchResult{ID: -1}, ErrClosed
	}
	id := entity.ID(g.size)
	home := incremental.ShardOf(id, len(g.actors))
	if g.down[home] {
		return incremental.BatchResult{ID: -1},
			fmt.Errorf("%w: shard %d, home of profile %d", ErrShardDown, home, id)
	}
	keys := g.keyer.Keys(p)
	// The home shard's failure count stands until its commit succeeds: a
	// resolve that fails counts once against it, in the gather or the
	// commit, so DownAfter failing commits mark it down too.
	fails := g.fails[home]
	cands, err := g.gather(keys)
	if err != nil {
		return incremental.BatchResult{ID: -1}, err
	}
	g.fails[home] = fails

	a := g.actors[home]
	req := a.req
	req.op = opCommit
	req.id = id
	req.profile = p
	req.keys = keys
	if err := a.submit(req); err != nil {
		return incremental.BatchResult{ID: -1}, fmt.Errorf("shard %d commit: %w", home, err)
	}
	if req = a.receive(); req.err != nil {
		g.noteFailure(home)
		return incremental.BatchResult{ID: -1}, fmt.Errorf("shard %d commit: %w", home, req.err)
	}
	g.noteSuccess(home)
	g.size++
	for _, k := range keys {
		g.blockSize[k]++
	}
	// Auto-checkpoint: when the home shard's memtable outgrew the budget,
	// seal every shard at the size the resolve just reached. The resolve
	// itself already succeeded — a failed checkpoint degrades durability
	// (counted), not correctness.
	if g.maint && g.cfg.MemtableBudget > 0 && req.pending > g.cfg.MemtableBudget {
		_ = g.Checkpoint()
	}
	return incremental.BatchResult{ID: id, Candidates: cands}, nil
}

// Checkpoint seals every shard's memtable under the next checkpoint id,
// cutting all manifests at the same global size — the consistency unit
// disk recovery rolls back to. A no-op for in-memory backends. The
// checkpoint id only advances when every shard committed its manifest;
// a partial checkpoint is left for recovery to ignore (its id is not
// common to all shards) and the next attempt reuses the same id.
func (g *Group) Checkpoint() error {
	if g.closed {
		return ErrClosed
	}
	if !g.maint {
		return nil
	}
	next := g.checkpoint + 1
	var firstErr error
	for i, a := range g.actors {
		g.sent[i] = false
		if g.down[i] {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d seal: %w", i, ErrShardDown)
			}
			continue
		}
		req := a.req
		req.op = opSeal
		req.checkpoint = next
		req.sealSize = g.size
		if err := a.submit(req); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d seal: %w", i, err)
			}
			continue
		}
		g.sent[i] = true
	}
	for i, a := range g.actors {
		if !g.sent[i] {
			continue
		}
		req := a.receive()
		if req.err != nil {
			g.noteFailure(i)
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d seal: %w", i, req.err)
			}
			continue
		}
		g.noteSuccess(i)
	}
	if firstErr != nil {
		g.metrics.Counter(CtrCheckpointFailures).Inc()
		return firstErr
	}
	g.checkpoint = next
	return nil
}

// Checkpointed returns the last fully committed checkpoint id.
func (g *Group) Checkpointed() uint64 { return g.checkpoint }

// SyncWAL runs the group-commit barrier: every live shard fsyncs its
// write-ahead log. An error means some acknowledged-in-memory commit may
// not be durable yet — the serving layer converts the affected batch's
// replies into errors (the commits themselves stand, so a retry observes
// at-least-once semantics). Down shards are skipped: a commit only
// succeeds on a live shard, so a down shard holds no unsynced records
// from any batch still awaiting its reply. A no-op for in-memory
// backends.
func (g *Group) SyncWAL() error {
	if g.closed {
		return ErrClosed
	}
	if !g.maint {
		return nil
	}
	var firstErr error
	for i, a := range g.actors {
		g.sent[i] = false
		if g.down[i] {
			continue
		}
		req := a.req
		req.op = opWalSync
		if err := a.submit(req); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d wal sync: %w", i, err)
			}
			continue
		}
		g.sent[i] = true
	}
	for i, a := range g.actors {
		if !g.sent[i] {
			continue
		}
		req := a.receive()
		if req.err != nil {
			g.noteFailure(i)
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d wal sync: %w", i, req.err)
			}
			continue
		}
		g.noteSuccess(i)
	}
	return firstErr
}

// Peek is the read-only scatter-gather alone: Resolve's candidates, no commit.
func (g *Group) Peek(p entity.Profile) ([]incremental.Candidate, error) {
	if g.closed {
		return nil, ErrClosed
	}
	return g.gather(g.keyer.Keys(p))
}

// PeekExcluding is the read-only resume gather of budget-aware streaming
// (internal/budget): it recomputes the candidates an already-committed
// profile received from its own Resolve by removing that profile's
// contribution from the coordinator's global statistics — the sharded
// analogue of incremental.Resolver.PeekExcluding. p must be the same
// profile committed as exclude (same content, hence the same block
// keys): every keyed block's global cardinality is decremented before
// increment derivation and Block Purging, exclude's singleton blocks are
// discounted from the ECBS block count, and exclude itself is dropped
// from its home shard's gather reply before the exact merge. When no
// other profile was committed in between, the result is bit-identical to
// the original Resolve's candidate list at every shard count.
func (g *Group) PeekExcluding(p entity.Profile, exclude entity.ID) ([]incremental.Candidate, error) {
	if g.closed {
		return nil, ErrClosed
	}
	if int(exclude) < 0 || int(exclude) >= g.size {
		return nil, fmt.Errorf("shard: excluded profile %d of %d", exclude, g.size)
	}
	return g.gatherExcluding(g.keyer.Keys(p), exclude)
}

func (g *Group) gather(keys []string) ([]incremental.Candidate, error) {
	return g.gatherExcluding(keys, -1)
}

// gatherExcluding runs phase 1: global per-key increments, fan-out to
// every live shard, exact merge. Any live-shard failure aborts the whole
// resolve (after collecting every outstanding reply); down shards are
// skipped and the answer marked partial in metrics. A non-negative
// exclude is the resume path — see PeekExcluding for the compensation
// arithmetic.
func (g *Group) gatherExcluding(keys []string, exclude entity.ID) ([]incremental.Candidate, error) {
	bi := len(keys)
	nb := float64(len(g.blockSize)) + 1
	sizeOf := func(k string) int { return g.blockSize[k] }
	maxWeighted := g.cfg.Resolver.K
	if exclude >= 0 {
		sizeOf = func(k string) int {
			// Every gather key names a block exclude is a member of.
			if n := g.blockSize[k] - 1; n > 0 {
				return n
			}
			return 0
		}
		for _, k := range keys {
			if g.blockSize[k] == 1 {
				nb--
			}
		}
		if maxWeighted > 0 {
			// One extra local slot so dropping exclude from its home
			// shard's top-K cannot cost a real candidate.
			maxWeighted++
		}
	}
	g.incs = incremental.KeyIncrements(g.incs[:0], keys, sizeOf,
		g.cfg.Resolver.Scheme, g.cfg.Resolver.MaxBlockSize)

	partial := false
	var firstErr error
	for i, a := range g.actors {
		g.sent[i] = false
		g.lists[i] = nil
		if g.down[i] {
			partial = true
			continue
		}
		if firstErr != nil {
			continue
		}
		req := a.req
		req.op = opGather
		req.keys = keys
		req.incs = g.incs
		req.bi = bi
		req.nb = nb
		req.maxWeighted = maxWeighted
		if err := a.submit(req); err != nil {
			firstErr = fmt.Errorf("shard %d gather: %w", i, err)
			continue
		}
		g.sent[i] = true
	}
	for i, a := range g.actors {
		if !g.sent[i] {
			continue
		}
		req := a.receive()
		if req.err != nil {
			g.noteFailure(i)
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d gather: %w", i, req.err)
			}
			continue
		}
		g.noteSuccess(i)
		g.lists[i] = req.cands
		if g.cfg.OnGather != nil {
			g.cfg.OnGather(i, req.weighed)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if partial {
		g.metrics.Counter(CtrPartialGathers).Inc()
	}
	if exclude >= 0 {
		home := incremental.ShardOf(exclude, len(g.actors))
		list := g.lists[home]
		for idx := range list {
			if list[idx].ID == exclude {
				g.lists[home] = append(list[:idx], list[idx+1:]...)
				break
			}
		}
	}
	if k := g.cfg.Resolver.K; k > 0 {
		return g.merger.TopK(k, g.lists), nil
	}
	return g.merger.AboveMean(g.lists), nil
}

func (g *Group) noteFailure(i int) {
	g.metrics.Counter(CtrFailures).Inc()
	g.fails[i]++
	if g.fails[i] >= g.cfg.DownAfter && !g.down[i] {
		g.down[i] = true
		g.metrics.Gauge(GaugeDown).Set(int64(g.downCount()))
	}
}

func (g *Group) noteSuccess(i int) { g.fails[i] = 0 }

func (g *Group) downCount() int {
	n := 0
	for _, d := range g.down {
		if d {
			n++
		}
	}
	return n
}

// Stat is one shard's health and size snapshot, served by
// GET /v1/admin/status.
type Stat struct {
	Shard               int  `json:"shard"`
	Profiles            int  `json:"profiles"`
	Blocks              int  `json:"blocks"`
	QueueFree           int  `json:"queue_free"`
	Down                bool `json:"down"`
	ConsecutiveFailures int  `json:"consecutive_failures"`
	// Disk reports the out-of-core tier; nil for in-memory partitions.
	Disk *DiskStats `json:"disk,omitempty"`
}

// Stats queries every actor for its sizes. Down shards still answer —
// down marks failing operations, not a dead goroutine.
func (g *Group) Stats() []Stat {
	stats := make([]Stat, len(g.actors))
	for i, a := range g.actors {
		free := g.cfg.QueueDepth // an inline actor never queues
		if a.tokens != nil {
			free = cap(a.tokens) - len(a.tokens)
		}
		stats[i] = Stat{
			Shard:               i,
			QueueFree:           free,
			Down:                g.down[i],
			ConsecutiveFailures: g.fails[i],
		}
		if g.closed {
			continue
		}
		req := a.req
		req.op = opStats
		if err := a.submit(req); err != nil {
			continue
		}
		req = a.receive()
		stats[i].Profiles = req.profiles
		stats[i].Blocks = req.blocks
		if req.hasDisk {
			d := req.disk
			stats[i].Disk = &d
		}
	}
	return stats
}

// Snapshot deep-copies every shard's partition and merges them into the
// canonical global snapshot, byte-identical to what a single-index
// Resolver over the same arrivals would produce — shard count does not
// leak into the artifact. Its Config is the one the group serves, which
// after FromSnapshot is the snapshot's, not the caller's.
func (g *Group) Snapshot() *incremental.Snapshot {
	segs := make([]*incremental.PartitionSnapshot, len(g.actors))
	for i, a := range g.actors {
		if g.closed {
			// Actors have exited; their partitions are quiescent and
			// safe to read directly.
			segs[i] = a.back.Snapshot()
			continue
		}
		req := a.req
		req.op = opSnapshot
		if err := a.submit(req); err != nil {
			// The coordinator is the only submitter, so tokens are
			// always free here; guard anyway.
			segs[i] = a.back.Snapshot()
			continue
		}
		segs[i] = a.receive().snap
	}
	return incremental.MergeSnapshots(g.cfg.Resolver, segs)
}

// FromSnapshot rebuilds a group from a canonical snapshot, routing each
// profile to its home shard. The snapshot's Config overrides
// cfg.Resolver, mirroring incremental.FromSnapshot, and the snapshot must
// pass the same Validate, so a Blocks that disagrees with the key lists
// is refused rather than silently skewing weights. In-memory partitions
// load at their final size; configured backends are fed commit by commit.
func FromSnapshot(s *incremental.Snapshot, cfg Config) (*Group, error) {
	if s == nil {
		return nil, fmt.Errorf("shard: nil snapshot")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Config.Scheme == core.EJS {
		return nil, incremental.ErrUnsupportedScheme
	}
	cfg.Resolver = s.Config
	cfg = cfg.withDefaults()
	load := cfg.Backends
	if load == nil {
		load = func(i int) (Backend, error) { return incremental.LoadPartition(s, cfg.Shards, i), nil }
	}
	g, err := newGroup(cfg, load)
	if err != nil {
		return nil, err
	}
	// The largest partition's block count: exact at one shard, else a floor.
	hint := 0
	for _, a := range g.actors {
		hint = max(hint, a.back.Blocks())
	}
	g.blockSize = make(map[string]int, hint)
	for i, keys := range s.BlocksOf {
		if cfg.Backends != nil {
			id := entity.ID(i)
			home := incremental.ShardOf(id, len(g.actors))
			if err := g.actors[home].back.Commit(id, s.Profiles[i], keys); err != nil {
				return nil, err
			}
		}
		for _, k := range keys {
			g.blockSize[k]++
		}
	}
	g.size = len(s.Profiles)
	g.start()
	return g, nil
}

// Close stops every actor, waits for them to exit, and releases
// backends that hold resources (open segment files). Idempotent.
func (g *Group) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	var firstErr error
	for _, a := range g.actors {
		if a.mailbox != nil {
			close(a.mailbox)
			<-a.exited
		}
		if c, ok := a.back.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
