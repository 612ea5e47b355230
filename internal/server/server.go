// Package server is the online Entity Resolution query service: a
// concurrency-safe façade over the internal/shard coordinator that turns
// the one-shot cmd/stream workflow into an always-on serving layer.
//
// There is one serving path: the index is a shard.Group at every shard
// count, in memory (where one shard runs on the batcher's goroutine) and
// on disk (DiskDir). Answers are bit-identical to the serial reference
// resolver of internal/incremental in every shape.
//
// Three serving-stack shapes make it production-grade:
//
//   - Micro-batching. Concurrent /v1/resolve requests are coalesced into
//     one index pass: a single batcher goroutine — the only writer —
//     drains the admission queue, up to MaxBatch arrivals, and resolves
//     them one by one under one lock acquisition. It waits for
//     more only while an admitted request is still on its way to the
//     queue, and never longer than BatchWindow; a lone caller is flushed
//     at once. Responses are identical to processing the same arrival
//     order one at a time.
//   - Backpressure. Admission is a bounded queue; when it is full the
//     server sheds load immediately (ErrQueueFull → HTTP 429 with
//     Retry-After) instead of building an unbounded backlog. Accepted
//     requests are never dropped: every queued job is answered, even
//     during graceful shutdown.
//   - Snapshot hot-swap. The index behind the façade can be replaced
//     atomically (Reload / POST /v1/admin/reload) with one built from a
//     pre-blocked internal/store snapshot. The swap fences on the same
//     lock the batcher writes under, so in-flight requests complete
//     against whichever index they were batched into and none fail.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"metablocking/internal/budget"
	"metablocking/internal/entity"
	"metablocking/internal/fault"
	"metablocking/internal/incremental"
	"metablocking/internal/obs"
	"metablocking/internal/par"
	"metablocking/internal/shard"
	"metablocking/internal/store"
)

// Typed errors of the façade; test with errors.Is. The HTTP layer maps
// ErrQueueFull to 429 + Retry-After and ErrDraining to 503.
var (
	// ErrQueueFull is returned when the admission queue is at capacity.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining is returned once Close has begun: the server finishes
	// accepted work but admits nothing new.
	ErrDraining = errors.New("server: shutting down")
	// ErrSchemeMismatch is returned by ReloadFile when the snapshot's
	// weighting scheme differs from the serving scheme.
	ErrSchemeMismatch = errors.New("server: snapshot scheme differs from serving scheme")
)

// Counter and gauge names the server reports into its registry, alongside
// the per-endpoint http.* counters from obs.HTTPMetrics.
const (
	CtrAccepted      = "server.accepted"
	CtrRejectedFull  = "server.rejected_full"
	CtrRejectedDrain = "server.rejected_draining"
	CtrBatches       = "server.batches"
	CtrBatchedProfs  = "server.batch_profiles"
	CtrCandidates    = "server.candidates"
	CtrReloads       = "server.reloads"
	CtrSnapshots     = "server.snapshots"
	CtrPanics        = "server.panics_recovered"
	CtrResolveFailed = "server.resolve_failures"
	CtrDegradedSrv   = "server.degraded_served"
	CtrWalSyncFailed = "server.wal_sync_failures"
	CtrCorruptLoads  = "store.corrupt_loads"
	GaugeProfiles    = "server.profiles"
	GaugeQueueCap    = "server.queue_cap"
	GaugeDegraded    = "server.degraded"
	GaugeReloadUs    = "server.reload_us"
	TextLastError    = "server.last_error"
)

// FaultResolve is the fault-injection site consulted once per admitted
// profile inside the single-writer index pass. Chaos tests (and the
// -fault flag of cmd/serve) arm errors, delays or panics here.
const FaultResolve = "server.resolve"

// FaultStream is the fault-injection site consulted before each batch
// flush of a streamed resolve. A delay spec pins a stream mid-flight —
// how chaos tests hold a response open across a SIGKILL — and an error
// spec aborts the stream as a vanished client would.
const FaultStream = "server.stream"

// Config.WALSync policies (cmd/serve -wal-sync).
const (
	WALSyncAlways   = "always"
	WALSyncInterval = "interval"
	WALSyncOff      = "off"
)

// Config tunes the serving façade. The zero value gets sensible defaults.
type Config struct {
	// Resolver configures the incremental index (scheme, K, block cap).
	Resolver incremental.Config
	// Shards splits the serving index into N single-writer partitions
	// behind the internal/shard scatter-gather coordinator. 0 means 1: a
	// one-shard in-memory group, which runs inline on the batcher's
	// goroutine. Answers are bit-identical at every shard count.
	Shards int
	// ShardQueueDepth bounds each shard actor's admission queue. An
	// inline one-shard group has no queue. Default 2.
	ShardQueueDepth int
	// BatchWindow is the upper bound on how long the batcher waits for an
	// announced arrival — a request admitted but not yet queued — before
	// flushing a partial batch. With no such request it flushes at once.
	// Default 2ms.
	BatchWindow time.Duration
	// MaxBatch caps arrivals per index pass. Default 64.
	MaxBatch int
	// QueueDepth bounds the admission queue; a full queue sheds load
	// with ErrQueueFull. Default 1024.
	QueueDepth int
	// RetryAfter is the advisory client back-off sent with 429 responses.
	// Default 1s.
	RetryAfter time.Duration
	// RequestTimeout bounds each HTTP request handled by Handler with a
	// per-request context deadline. Zero disables the deadline.
	RequestTimeout time.Duration
	// BreakerThreshold is the number of consecutive resolve failures that
	// opens the degraded-mode circuit. Zero defaults to 5; negative
	// disables the breaker entirely.
	BreakerThreshold int
	// BreakerCooldown is how long the circuit stays open before a single
	// half-open probe is allowed through. Default 1s.
	BreakerCooldown time.Duration

	// Tiers configures the budget-aware streaming path's SLA classes:
	// per-tier admission pools (in front of the bounded queue) and the
	// default budgets applied to streamed requests that set none. Nil
	// defaults to unbounded "interactive" and "batch" tiers with no
	// default budgets, so streaming stays unbudgeted unless a request
	// asks — cmd/serve installs real bounds.
	Tiers []budget.Tier
	// StreamBatch is how many ranked candidates a streamed resolve
	// flushes per frame. Default 16.
	StreamBatch int

	// DiskDir, when set, serves the out-of-core index from this
	// directory: memtable + delta segments + background compaction
	// (internal/diskindex) behind the shard coordinator, at any Shards
	// count including 1. The directory is recovered at startup to its
	// newest consistent checkpoint; /v1/admin/snapshot checkpoints it.
	DiskDir string
	// MemtableBudget caps any one shard's unsealed memtable (estimated
	// bytes); exceeding it auto-checkpoints the index. Disk mode only.
	// Default 32 MiB.
	MemtableBudget int
	// DiskCacheBytes budgets each shard's posting-page cache. Disk mode
	// only. Default 8 MiB.
	DiskCacheBytes int
	// DiskCompactAfter is the sealed-segment count that triggers a
	// shard's background compaction. Disk mode only. Default 4.
	DiskCompactAfter int
	// WALDisabled turns the per-shard write-ahead log off entirely: a
	// crash loses every commit acknowledged since the last checkpoint
	// (PR 8's rollback semantics). Disk mode only; surfaces a
	// wal_disabled warning in /v1/admin/status.
	WALDisabled bool
	// WALSync picks the log's fsync policy — cmd/serve -wal-sync:
	//
	//	"always"    group commit: one fsync per micro-batch, before any
	//	            commit in it is acknowledged. Acknowledged writes
	//	            survive process crash AND power loss. Default.
	//	"interval"  fsync every WALSyncInterval. Acknowledged writes
	//	            survive process crash (each append reaches the OS
	//	            before the ack); power loss can lose the last
	//	            interval.
	//	"off"       never fsync outside close/checkpoint. Same process-
	//	            crash guarantee as interval; power loss can lose
	//	            anything after the last checkpoint.
	//
	// Disk mode only.
	WALSync string
	// WALSyncInterval is the "interval" policy's fsync period.
	// Default 100ms.
	WALSyncInterval time.Duration

	// metrics receives the server's counters: a private registry that
	// withDefaults creates, exposed at /metrics.
	metrics *obs.Metrics
	// fault is consulted at the server's named fault sites (WithFault).
	// Nil is a no-op: zero cost on the hot path.
	fault *fault.Injector
	// breakerNow overrides the breaker's clock in tests (WithClock).
	breakerNow func() time.Time
}

// Option adjusts a server at construction time — the only way in for
// cross-cutting dependencies (fault injection) and test-only hooks
// (clocks), none of which belong in the public struct.
type Option func(*Config)

// WithFault installs a fault injector, consulted at the server's named
// sites: FaultResolve, and the per-shard shard.GatherSite /
// shard.CommitSite at every shard count.
func WithFault(in *fault.Injector) Option {
	return func(c *Config) { c.fault = in }
}

// WithClock overrides the circuit breaker's time source — the test hook
// that lets chaos suites step through open/half-open/closed transitions
// deterministically.
func WithClock(now func() time.Time) Option {
	return func(c *Config) { c.breakerNow = now }
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Resolver.MaxBlockSize == 0 {
		// Mirror the resolver's own default so /v1/admin/status reports
		// the effective value, not the zero placeholder.
		c.Resolver.MaxBlockSize = 1000
	}
	if c.ShardQueueDepth <= 0 {
		c.ShardQueueDepth = 2
	}
	if c.DiskDir != "" {
		if c.MemtableBudget <= 0 {
			c.MemtableBudget = 32 << 20
		}
		if c.DiskCacheBytes <= 0 {
			c.DiskCacheBytes = 8 << 20
		}
		if c.DiskCompactAfter <= 0 {
			c.DiskCompactAfter = 4
		}
		if c.WALSync == "" {
			c.WALSync = WALSyncAlways
		}
		if c.WALSyncInterval <= 0 {
			c.WALSyncInterval = 100 * time.Millisecond
		}
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.metrics == nil {
		c.metrics = obs.NewMetrics()
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerThreshold < 0 {
		c.BreakerThreshold = 0 // breaker disabled
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.Tiers == nil {
		c.Tiers = []budget.Tier{{Name: budget.TierInteractive}, {Name: budget.TierBatch}}
	}
	if c.StreamBatch <= 0 {
		c.StreamBatch = budget.DefaultBatch
	}
	return c
}

// Resolution is one resolve answer: the assigned ID and candidates, plus
// whether the request was served degraded — read-only against the last
// good index, with no ID assigned (ID is -1).
type Resolution struct {
	incremental.BatchResult
	Degraded bool
}

// jobResult is what the batcher sends back for one admitted job: either a
// Resolution or the per-request failure (injected fault, recovered panic).
type jobResult struct {
	res Resolution
	err error
}

// job is one admitted resolve request. reply is buffered so the batcher
// never blocks on a client that gave up waiting. A resume job is the
// read-only re-gather behind cursor resumption: it excludes the named
// already-committed profile and never mutates the index, but still rides
// the batcher so it is serialized with writers (the coordinator's
// gather scratch is single-caller).
type job struct {
	profile entity.Profile
	resume  bool
	exclude entity.ID
	reply   chan jobResult
}

// Server is the concurrency-safe serving façade. One batcher goroutine is
// the single writer to the index; handler goroutines are readers that
// fence on mu. Create with New, stop with Close.
type Server struct {
	cfg     Config
	metrics *obs.Metrics

	// mu fences the index pointer and its state: the batcher's flush and
	// Reload's swap take the write lock, read-only accessors the read
	// lock. The coordinator is single-caller, so operations that walk its
	// shards (Snapshot, Stats) take the write lock even though they don't
	// mutate index state.
	mu    sync.RWMutex
	index *shard.Group

	// breaker gates the write path behind degraded mode; consulted only
	// by the batcher, per job.
	breaker *breaker

	queue chan job
	// inflight counts admitted jobs not yet answered: queued, in the batch
	// being filled, or announced by a submitter about to enqueue. When the
	// batch holds all of them, no arrival is imminent and fill stops
	// waiting.
	inflight atomic.Int64

	// replyPool recycles the buffered reply channels of completed
	// requests. A channel abandoned by a caller that gave up (ctx.Done)
	// is never returned to the pool — the batcher's late answer lands in
	// its buffer and the channel is garbage — so a pooled channel is
	// always empty and can never deliver a stale result.
	replyPool sync.Pool

	// batchBuf and outcomeBuf are the batcher goroutine's reusable batch
	// scratch: one micro-batch pass allocates nothing in steady state.
	// Only the batcher touches them.
	batchBuf   []job
	outcomeBuf []jobResult

	// submitMu serializes admission against the start of a drain: once
	// Close sets draining under the write lock, no submitter can still
	// be inside the enqueue critical section, so the batcher's final
	// drain pass sees every accepted job.
	submitMu sync.RWMutex
	draining bool

	// Budget-aware streaming state: the per-tier admission pools, the
	// cursor signer (per-process key — restart invalidates cursors), and
	// the snapshot generation cursors are cut against, advanced by every
	// reload and checkpoint.
	pools      *budget.Pools
	signer     *budget.Signer
	generation atomic.Uint64

	// walAlways is the precomputed group-commit flag: disk mode, WAL on,
	// sync policy "always" — every flush ends with a fsync barrier
	// before its commits are acknowledged.
	walAlways bool

	stopc chan struct{}
	done  chan struct{}
}

// New validates the configuration, builds an empty serving index — a
// shard.Group of cfg.Shards partitions, in memory or recovered from
// cfg.DiskDir — and starts the batcher. Call Close to stop the server.
func New(cfg Config, opts ...Option) (*Server, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg = cfg.withDefaults()
	if cfg.DiskDir != "" {
		switch cfg.WALSync {
		case WALSyncAlways, WALSyncInterval, WALSyncOff:
		default:
			return nil, fmt.Errorf("server: unknown wal sync policy %q (want always, interval or off)", cfg.WALSync)
		}
	}
	signer, err := budget.NewSigner()
	if err != nil {
		return nil, err
	}
	r, err := newIndex(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		metrics:  cfg.metrics,
		index:    r,
		queue:    make(chan job, cfg.QueueDepth),
		batchBuf: make([]job, 0, cfg.MaxBatch),
		pools:    budget.NewPools(cfg.Tiers...),
		signer:   signer,
		stopc:    make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.breaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.breakerNow, func(degraded bool) {
		if degraded {
			s.metrics.Gauge(GaugeDegraded).Set(1)
		} else {
			s.metrics.Gauge(GaugeDegraded).Set(0)
		}
	})
	s.metrics.Gauge(GaugeQueueCap).Set(int64(cfg.QueueDepth))
	s.metrics.Gauge(GaugeProfiles).Set(0)
	s.metrics.Gauge(GaugeDegraded).Set(0)
	s.metrics.Gauge(GaugeReloadUs).Set(0)
	if cfg.DiskDir != "" && !cfg.WALDisabled {
		s.walAlways = cfg.WALSync == WALSyncAlways
		if cfg.WALSync == WALSyncInterval {
			go s.walSyncLoop()
		}
	}
	go s.batcher()
	return s, nil
}

// walSyncLoop is the "interval" sync policy: a ticker fsyncs every
// shard's write-ahead log under the same lock the batcher writes with.
// Errors surface through metrics (the affected commits were already
// acknowledged — that is the policy's documented loss window).
func (s *Server) walSyncLoop() {
	t := time.NewTicker(s.cfg.WALSyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			err := s.index.SyncWAL()
			s.mu.Unlock()
			if err != nil && !errors.Is(err, shard.ErrClosed) {
				s.metrics.Counter(CtrWalSyncFailed).Inc()
				s.metrics.Text(TextLastError).Set(err.Error())
			}
		case <-s.stopc:
			return
		}
	}
}

// newIndex builds the serving group the configuration asks for.
func newIndex(cfg Config) (*shard.Group, error) {
	if cfg.DiskDir != "" {
		return newDiskIndex(cfg)
	}
	return shard.New(shardConfig(cfg))
}

// shardConfig derives the coordinator configuration from the server's.
// The gather hook feeds the budget subsystem's work accounting: every
// shard reply's weighed-neighbor count lands in budget.gathered as it
// arrives.
func shardConfig(cfg Config) shard.Config {
	gathered := cfg.metrics.Counter(budget.CtrGathered)
	return shard.Config{
		Resolver:       cfg.Resolver,
		Shards:         cfg.Shards,
		QueueDepth:     cfg.ShardQueueDepth,
		Fault:          cfg.fault,
		Metrics:        cfg.metrics,
		MemtableBudget: cfg.MemtableBudget,
		OnGather:       func(_, weighed int) { gathered.Add(int64(weighed)) },
	}
}

// Resolve admits the profile, waits for its micro-batch to flush, and
// returns the assigned ID and pruned candidates. It returns ErrQueueFull
// when the admission queue is at capacity, ErrDraining after Close has
// begun, and ctx.Err() if the caller gives up first — in which case the
// accepted request is still processed (its ID is consumed) and only the
// reply is discarded. A per-request failure on the index pass — an
// injected fault or a recovered panic (*par.PanicError) — is returned as
// that request's error; batch-mates are unaffected. While the circuit
// breaker is open the answer is served degraded: read-only candidates
// from the last good index, ID -1, Degraded true.
func (s *Server) Resolve(ctx context.Context, p entity.Profile) (Resolution, error) {
	return s.submit(ctx, job{profile: p})
}

// Resume is the read-only re-gather behind cursor resumption: it
// recomputes the ranked candidates the already-committed profile exclude
// received from its own resolve (see shard.Group.PeekExcluding),
// without assigning an ID or mutating the index. It rides the same
// admission queue and batcher as Resolve — the underlying gather scratch
// is single-caller — and is subject to the same backpressure errors. The
// returned Resolution carries exclude as its ID.
func (s *Server) Resume(ctx context.Context, p entity.Profile, exclude entity.ID) (Resolution, error) {
	return s.submit(ctx, job{profile: p, resume: true, exclude: exclude})
}

// submit admits one job and waits for the batcher's answer.
func (s *Server) submit(ctx context.Context, j job) (Resolution, error) {
	reply, _ := s.replyPool.Get().(chan jobResult)
	if reply == nil {
		reply = make(chan jobResult, 1)
	}
	j.reply = reply
	s.submitMu.RLock()
	if s.draining {
		s.submitMu.RUnlock()
		s.replyPool.Put(reply)
		s.metrics.Counter(CtrRejectedDrain).Inc()
		return Resolution{}, ErrDraining
	}
	s.inflight.Add(1)
	select {
	case s.queue <- j:
		s.submitMu.RUnlock()
	default:
		s.inflight.Add(-1)
		s.submitMu.RUnlock()
		s.replyPool.Put(reply)
		s.metrics.Counter(CtrRejectedFull).Inc()
		return Resolution{}, ErrQueueFull
	}
	s.metrics.Counter(CtrAccepted).Inc()
	select {
	case out := <-j.reply:
		s.replyPool.Put(reply)
		return out.res, out.err
	case <-ctx.Done():
		// The batcher's answer still lands in the abandoned channel's
		// buffer; the channel is dropped, not pooled.
		return Resolution{}, ctx.Err()
	}
}

// Degraded reports whether the circuit breaker currently has the server
// answering read-only from the last good index.
func (s *Server) Degraded() bool { return s.breaker.degraded() }

// Reload atomically swaps the serving index for one rebuilt from the
// snapshot — at the server's configured shard count, regardless of how
// the snapshot was produced — and returns its profile count. The swap
// waits for the batch in flight (if any) to finish; requests already
// admitted but not yet batched are resolved against the new index. IDs
// restart at the snapshot's size. The replaced group is closed (its
// actors, if any, stop); any down shards are forgotten with it, so
// reload doubles as the per-shard recovery lever.
func (s *Server) Reload(snap *incremental.Snapshot) (int, error) {
	if s.diskMode() {
		return s.diskReload(snap)
	}
	r, err := shard.FromSnapshot(snap, shardConfig(s.cfg))
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	old := s.index
	s.index = r
	n := r.Size()
	s.mu.Unlock()
	old.Close()
	// A fresh known-good index closes the degraded-mode circuit: reload is
	// the operator's recovery lever.
	s.breaker.reset()
	// The swap orphans the previous snapshot generation: outstanding
	// resume cursors were cut against an index that no longer exists.
	s.generation.Add(1)
	s.metrics.Counter(CtrReloads).Inc()
	s.metrics.Gauge(GaugeProfiles).Set(int64(n))
	return n, nil
}

// Generation is the snapshot generation resume cursors are bound to.
// Every successful reload and disk checkpoint advances it, invalidating
// all outstanding cursors.
func (s *Server) Generation() uint64 { return s.generation.Load() }

// ReloadFile is Reload from a store resolver artifact or a disk directory
// (store.LoadAnyResolverFile). The artifact is fully loaded and verified
// BEFORE the swap: a corrupt or version-mismatched file leaves the live
// index untouched (the HTTP layer maps it to 422). A successful reload sets the server.reload_us
// gauge to its duration, load plus build.
func (s *Server) ReloadFile(path string) (int, error) {
	start := time.Now()
	snap, err := store.LoadAnyResolverFile(path)
	if err != nil {
		if errors.Is(err, store.ErrCorruptArtifact) || errors.Is(err, store.ErrVersionMismatch) {
			s.metrics.Counter(CtrCorruptLoads).Inc()
			s.metrics.Text(TextLastError).Set(err.Error())
		}
		return 0, err
	}
	if snap.Config.Scheme != s.cfg.Resolver.Scheme {
		return 0, fmt.Errorf("%w: snapshot %v, serving %v",
			ErrSchemeMismatch, snap.Config.Scheme, s.cfg.Resolver.Scheme)
	}
	n, err := s.Reload(snap)
	if err == nil {
		s.metrics.Gauge(GaugeReloadUs).Set(time.Since(start).Microseconds())
	}
	return n, err
}

// Size returns the number of profiles in the serving index.
func (s *Server) Size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index.Size()
}

// Snapshot deep-copies the serving index in canonical (shard-count
// independent) form, fenced against the writer — the artifact Reload
// and /v1/admin/reload consume. It takes the write lock because the
// sharded coordinator is single-caller.
func (s *Server) Snapshot() *incremental.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.Snapshot()
}

// SnapshotFile persists the current serving index at path as a
// "resolver" artifact and returns the number of profiles it holds. The
// artifact is the canonical snapshot, so servers at any shard count
// over the same arrivals write the same bytes, and the file can be fed
// back to -snapshot at startup or to /v1/admin/reload at any shard
// count. It records the configuration the index serves, which after a
// reload is the artifact's, not the flags'. In disk mode an empty path
// means "checkpoint in place" — durability lives in the serving
// directory itself — while a non-empty path additionally exports the
// portable artifact.
func (s *Server) SnapshotFile(path string) (int, error) {
	if s.diskMode() && path == "" {
		return s.Checkpoint()
	}
	snap := s.Snapshot()
	if err := store.SaveResolverFile(path, snap); err != nil {
		return 0, err
	}
	s.metrics.Counter(CtrSnapshots).Inc()
	return len(snap.Profiles), nil
}

// ConfigStatus is the effective (post-defaults) configuration as served
// by GET /v1/admin/status — the introspectable replacement for fishing
// tunables out of /debug/vars.
type ConfigStatus struct {
	Scheme            string `json:"scheme"`
	K                 int    `json:"k"`
	MaxBlockSize      int    `json:"max_block_size"`
	MinTokenLength    int    `json:"min_token_length"`
	Shards            int    `json:"shards"`
	ShardQueueDepth   int    `json:"shard_queue_depth,omitempty"`
	BatchWindowMs     int64  `json:"batch_window_ms"`
	MaxBatch          int    `json:"max_batch"`
	QueueDepth        int    `json:"queue_depth"`
	RetryAfterMs      int64  `json:"retry_after_ms"`
	RequestTimeoutMs  int64  `json:"request_timeout_ms"`
	BreakerThreshold  int    `json:"breaker_threshold"`
	BreakerCooldownMs int64  `json:"breaker_cooldown_ms"`
	StreamBatch       int    `json:"stream_batch"`

	// Disk-mode knobs; omitted when serving in-memory.
	DiskDir           string `json:"disk_dir,omitempty"`
	MemtableBudget    int    `json:"memtable_budget,omitempty"`
	DiskCacheBytes    int    `json:"disk_cache_bytes,omitempty"`
	DiskCompactAfter  int    `json:"disk_compact_after,omitempty"`
	WalSync           string `json:"wal_sync,omitempty"`
	WalSyncIntervalMs int64  `json:"wal_sync_interval_ms,omitempty"`
	WalDisabled       bool   `json:"wal_disabled,omitempty"`
}

// Status is the GET /v1/admin/status payload: effective configuration,
// serving state, and per-shard gauges.
type Status struct {
	Config   ConfigStatus `json:"config"`
	Profiles int          `json:"profiles"`
	Ready    bool         `json:"ready"`
	Degraded bool         `json:"degraded"`
	Breaker  string       `json:"breaker"`
	// Checkpoint is the last fully committed disk checkpoint id; absent
	// when serving in-memory.
	Checkpoint uint64       `json:"checkpoint,omitempty"`
	Shards     []shard.Stat `json:"shards,omitempty"`
	// Generation is the snapshot generation resume cursors are bound to;
	// Tiers describes the budget-aware streaming path's admission pools.
	Generation uint64            `json:"generation"`
	Tiers      []budget.TierStat `json:"tiers,omitempty"`
	// Warnings flags configurations that trade durability for speed
	// (e.g. "wal_disabled"), so an operator auditing the fleet sees the
	// loss window without reading flag docs.
	Warnings []string `json:"warnings,omitempty"`
}

// Status assembles the admin status snapshot. Like Snapshot it takes the
// write lock, because walking the sharded coordinator's actors is a
// single-caller operation. The resolver configuration is the one the
// index serves, which after a reload is the artifact's, not the flags'.
func (s *Server) Status() Status {
	cfg := s.cfg
	st := Status{
		Config: ConfigStatus{
			Shards:            cfg.Shards,
			ShardQueueDepth:   cfg.ShardQueueDepth,
			BatchWindowMs:     cfg.BatchWindow.Milliseconds(),
			MaxBatch:          cfg.MaxBatch,
			QueueDepth:        cfg.QueueDepth,
			RetryAfterMs:      cfg.RetryAfter.Milliseconds(),
			RequestTimeoutMs:  cfg.RequestTimeout.Milliseconds(),
			BreakerThreshold:  cfg.BreakerThreshold,
			BreakerCooldownMs: cfg.BreakerCooldown.Milliseconds(),
			StreamBatch:       cfg.StreamBatch,
			DiskDir:           cfg.DiskDir,
			MemtableBudget:    cfg.MemtableBudget,
			DiskCacheBytes:    cfg.DiskCacheBytes,
			DiskCompactAfter:  cfg.DiskCompactAfter,
		},
		Ready:      s.Ready(),
		Degraded:   s.breaker.degraded(),
		Breaker:    s.breaker.stateString(),
		Generation: s.generation.Load(),
		Tiers:      s.pools.Stats(),
	}
	if cfg.DiskDir != "" {
		if cfg.WALDisabled {
			st.Config.WalDisabled = true
			st.Warnings = append(st.Warnings, "wal_disabled: acknowledged writes since the last checkpoint are lost on crash")
		} else {
			st.Config.WalSync = cfg.WALSync
			if cfg.WALSync == WALSyncInterval {
				st.Config.WalSyncIntervalMs = cfg.WALSyncInterval.Milliseconds()
			}
			if cfg.WALSync == WALSyncOff {
				st.Warnings = append(st.Warnings, "wal_sync=off: power loss may drop acknowledged writes since the last rotation (SIGKILL loses nothing)")
			}
		}
	}
	s.mu.Lock()
	served := s.index.Config().Resolver
	st.Config.Scheme = served.Scheme.String()
	st.Config.K = served.K
	st.Config.MaxBlockSize = served.MaxBlockSize
	st.Config.MinTokenLength = served.MinTokenLength
	st.Profiles = s.index.Size()
	st.Checkpoint = s.index.Checkpointed()
	st.Shards = s.index.Stats()
	s.mu.Unlock()
	return st
}

// Ready reports whether the server is accepting requests.
func (s *Server) Ready() bool {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	return !s.draining
}

// Metrics returns the server's registry (never nil after New).
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Close drains gracefully: new requests are rejected with ErrDraining,
// every already-accepted request is answered, the batcher exits, and
// the serving group is closed (stopping its actors, if any). Safe to
// call more than once.
func (s *Server) Close() error {
	s.submitMu.Lock()
	already := s.draining
	s.draining = true
	s.submitMu.Unlock()
	if !already {
		close(s.stopc)
	}
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.Close()
}

// batcher is the single writer: it owns every mutation of the index.
func (s *Server) batcher() {
	defer close(s.done)
	for {
		select {
		case first := <-s.queue:
			s.flush(s.fill(first))
		case <-s.stopc:
			// draining is set before stopc closes and submitters check
			// it under submitMu, so the queue can only shrink now.
			for {
				select {
				case first := <-s.queue:
					s.flush(s.fillQueued(first))
				default:
					return
				}
			}
		}
	}
}

// fill gathers a micro-batch: the first job plus everything already
// queued, capped at MaxBatch. It waits for more only while inflight
// counts an admitted job the batch does not hold yet — a submitter about
// to enqueue — and never longer than BatchWindow, re-checking after each
// arrival. A lone caller is flushed at once, without arming a timer.
// The batch is built in the batcher-owned scratch buffer; flush returns
// it after answering.
func (s *Server) fill(first job) []job {
	batch := s.fillQueued(first)
	if s.complete(batch) {
		return batch
	}
	timer := time.NewTimer(s.cfg.BatchWindow)
	defer timer.Stop()
	for !s.complete(batch) {
		select {
		case j := <-s.queue:
			batch = append(batch, j)
		case <-timer.C:
			return batch
		case <-s.stopc:
			// Finish this batch immediately; the drain loop answers the
			// rest of the queue.
			return batch
		}
	}
	return batch
}

// complete reports whether fill may stop waiting: the batch is full, or
// it holds every admitted job that has not been answered. The MaxBatch
// test comes first, so a MaxBatch of 1 never reads the shared counter.
func (s *Server) complete(batch []job) bool {
	return len(batch) >= s.cfg.MaxBatch || int64(len(batch)) >= s.inflight.Load()
}

// fillQueued gathers a batch without waiting — fill's first step, and the
// whole of the drain loop's, when no new arrivals are possible.
func (s *Server) fillQueued(first job) []job {
	batch := append(s.batchBuf[:0], first)
	for len(batch) < s.cfg.MaxBatch {
		select {
		case j := <-s.queue:
			batch = append(batch, j)
		default:
			return batch
		}
	}
	return batch
}

// flush runs one index pass over the batch and answers every job. The
// write lock is taken once per batch — this is the micro-batching win —
// and is the same lock Reload swaps under. Within the pass each job is
// processed by a guarded addOne (the serial reference's AddBatch is
// that same loop), so an injected fault or a panic fails only its own request:
// batch-mates still resolve, the batcher survives, and the breaker counts
// the failure toward degraded mode.
func (s *Server) flush(batch []job) {
	outcomes := s.outcomeBuf
	if cap(outcomes) < len(batch) {
		outcomes = make([]jobResult, len(batch))
	} else {
		outcomes = outcomes[:len(batch)]
	}
	s.mu.Lock()
	for i, j := range batch {
		if j.resume {
			// Read-only: no breaker interaction, no ID consumed.
			outcomes[i] = s.resumeOne(j)
		} else {
			proceed, probe := s.breaker.allow()
			if !proceed {
				outcomes[i] = jobResult{res: s.peekOne(j.profile)}
			} else {
				res, err := s.addOne(j.profile)
				s.breaker.result(probe, err != nil)
				outcomes[i] = jobResult{res: Resolution{BatchResult: res}, err: err}
			}
		}
	}
	if s.walAlways {
		s.syncWALLocked(batch, outcomes)
	}
	size := s.index.Size()
	s.mu.Unlock()

	// Settle everything a caller might read — the counters and inflight —
	// before the first reply: a caller that reads a counter, or resubmits
	// at once, must not see this batch half-accounted. A stale inflight
	// would make the next fill wait out the window for an arrival that
	// already happened.
	candidates, degraded, failed := 0, 0, 0
	for _, out := range outcomes {
		switch {
		case out.err != nil:
			failed++
			s.metrics.Text(TextLastError).Set(out.err.Error())
		case out.res.Degraded:
			degraded++
			candidates += len(out.res.Candidates)
		default:
			candidates += len(out.res.Candidates)
		}
	}
	s.metrics.Counter(CtrBatches).Inc()
	s.metrics.Counter(CtrBatchedProfs).Add(int64(len(batch)))
	s.metrics.Counter(CtrCandidates).Add(int64(candidates))
	s.metrics.Counter(CtrResolveFailed).Add(int64(failed))
	s.metrics.Counter(CtrDegradedSrv).Add(int64(degraded))
	s.metrics.Gauge(GaugeProfiles).Set(int64(size))
	s.inflight.Add(-int64(len(batch)))
	for i, j := range batch {
		j.reply <- outcomes[i]
	}

	// Return the scratch with its references dropped, so completed
	// profiles and candidate slices are collectable before the next batch.
	clear(batch)
	clear(outcomes)
	s.batchBuf = batch[:0]
	s.outcomeBuf = outcomes[:0]
}

// syncWALLocked is the group-commit barrier of the "always" sync
// policy: after the batch's commits land in the memtables and before
// any reply is sent, every shard's write-ahead log is fsynced once —
// one barrier amortized over the whole micro-batch. If the barrier
// fails, the commits that rode on it cannot be acknowledged as
// durable, so their successful outcomes are rewritten into errors.
// The commits themselves stand (the IDs are consumed); a client that
// retries observes at-least-once semantics, same as a response lost in
// transit. Called with s.mu held.
func (s *Server) syncWALLocked(batch []job, outcomes []jobResult) {
	committed := false
	for i, j := range batch {
		if !j.resume && outcomes[i].err == nil && !outcomes[i].res.Degraded && outcomes[i].res.ID >= 0 {
			committed = true
			break
		}
	}
	if !committed {
		return
	}
	err := s.index.SyncWAL()
	if err == nil {
		return
	}
	s.metrics.Counter(CtrWalSyncFailed).Inc()
	for i, j := range batch {
		if !j.resume && outcomes[i].err == nil && !outcomes[i].res.Degraded && outcomes[i].res.ID >= 0 {
			outcomes[i] = jobResult{err: fmt.Errorf("server: wal sync: %w", err)}
		}
	}
}

// addOne is one guarded index pass for a single admitted profile: the
// fault site fires first, then the group's Resolve. A panic — injected or
// genuine — is recovered into a *par.PanicError so one poisoned request
// cannot kill the batcher or fail its batch-mates. Called with s.mu held.
func (s *Server) addOne(p entity.Profile) (res incremental.BatchResult, err error) {
	defer func() {
		if pe := par.Recovered(recover()); pe != nil {
			s.metrics.Counter(CtrPanics).Inc()
			res, err = incremental.BatchResult{}, pe
		}
	}()
	if err := s.cfg.fault.Check(FaultResolve); err != nil {
		return incremental.BatchResult{}, err
	}
	return s.index.Resolve(p)
}

// peekOne answers a request degraded: read-only candidates from the last
// good index via Group.Peek, no ID assigned. Guarded like addOne —
// even a broken index must not kill the batcher. Called with s.mu held.
func (s *Server) peekOne(p entity.Profile) (res Resolution) {
	defer func() {
		if pe := par.Recovered(recover()); pe != nil {
			s.metrics.Counter(CtrPanics).Inc()
			res = Resolution{BatchResult: incremental.BatchResult{ID: -1}, Degraded: true}
		}
	}()
	cands, err := s.index.Peek(p)
	if err != nil {
		s.metrics.Counter(CtrPanics).Inc()
		return Resolution{BatchResult: incremental.BatchResult{ID: -1}, Degraded: true}
	}
	return Resolution{
		BatchResult: incremental.BatchResult{ID: -1, Candidates: cands},
		Degraded:    true,
	}
}

// resumeOne answers a resume job: a read-only exclusion gather against
// the live index. Guarded like addOne. Called with s.mu held.
func (s *Server) resumeOne(j job) (out jobResult) {
	defer func() {
		if pe := par.Recovered(recover()); pe != nil {
			s.metrics.Counter(CtrPanics).Inc()
			out = jobResult{err: pe}
		}
	}()
	if err := s.cfg.fault.Check(FaultResolve); err != nil {
		return jobResult{err: err}
	}
	cands, err := s.index.PeekExcluding(j.profile, j.exclude)
	if err != nil {
		return jobResult{err: err}
	}
	return jobResult{res: Resolution{
		BatchResult: incremental.BatchResult{ID: j.exclude, Candidates: cands},
	}}
}
