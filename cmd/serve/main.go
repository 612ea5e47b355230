// Command serve runs the online Entity Resolution query service: an
// HTTP/JSON façade over the incremental index that micro-batches
// concurrent /v1/resolve requests into single index passes, sheds load
// with 429 + Retry-After when its bounded admission queue fills, and
// hot-swaps pre-blocked snapshots (written by internal/store) via
// /v1/admin/reload without failing in-flight requests.
//
// The index is a scatter-gather shard group (internal/shard) at every
// -shards count: the default 1 runs on the server's batcher goroutine,
// N > 1 partitions it into N single-writer shard actors. Answers are
// bit-identical to the serial incremental resolver at every count.
//
// With -disk-dir the index is out-of-core: recent arrivals live in
// per-shard memtables, sealed history in paged, checksummed segment
// files under the directory, compacted in the background. The directory
// is recovered to its newest consistent checkpoint at startup;
// /v1/admin/snapshot with an empty path checkpoints it in place.
// -memtable-budget bounds RAM per shard, -disk-cache the posting-page
// cache. Answers remain bit-identical to the in-memory configurations.
//
// POST /v1/resolve also serves a budget-aware progressive mode: with an
// Accept of text/event-stream (SSE) or application/x-ndjson, or any of
// the budget_ms / max_comparisons / min_confidence / tier / cursor query
// parameters, ranked candidates stream best-first in batches. A request
// that exhausts its budget receives the best prefix plus a signed
// resumption cursor; -interactive-slots / -batch-slots bound per-tier
// concurrency and -interactive-budget / -batch-budget set the default
// SLAs.
//
// Endpoints: POST /v1/resolve, POST /v1/admin/reload,
// POST /v1/admin/snapshot, GET /v1/admin/status, GET /healthz,
// GET /readyz, GET /metrics, GET /debug/vars. Every non-2xx response
// carries a structured {"error":{"code":...}} envelope.
//
// Example:
//
//	go run ./cmd/serve -addr 127.0.0.1:8080 -scheme js -k 5 &
//	curl -X POST -d '{"attributes":{"name":["Jack Miller"]}}' \
//	    http://127.0.0.1:8080/v1/resolve
//
// SIGINT/SIGTERM trigger a graceful drain: the listener stops, accepted
// requests are answered, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"metablocking/internal/budget"
	"metablocking/internal/core"
	"metablocking/internal/fault"
	"metablocking/internal/incremental"
	"metablocking/internal/server"
	"metablocking/internal/store"
)

// faultFlags collects repeatable -fault values ("site:directive,...").
type faultFlags []string

func (f *faultFlags) String() string { return fmt.Sprint(*f) }
func (f *faultFlags) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// options carries the parsed command-line configuration.
type options struct {
	addr        string
	scheme      string
	k           int
	maxBlock    int
	minToken    int
	shards      int
	shardQueue  int
	diskDir     string
	memBudget   int
	diskCache   int
	compactN    int
	wal         bool
	walSync     string
	walInterval time.Duration
	batchWindow time.Duration
	batchMax    int
	queueDepth  int
	retryAfter  time.Duration
	snapshot    string
	metrics     bool

	// Budget-aware streaming knobs.
	interactiveSlots  int
	batchSlots        int
	interactiveBudget time.Duration
	batchBudget       time.Duration
	streamBatch       int

	// Resilience knobs.
	requestTimeout  time.Duration
	breakerFailures int
	breakerCooldown time.Duration
	faults          faultFlags
	faultSeed       int64
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
	flag.StringVar(&opts.scheme, "scheme", "js", "weighting scheme: arcs, cbs, ecbs, js")
	flag.IntVar(&opts.k, "k", 10, "max candidates per arrival (0 = mean-weight pruning)")
	flag.IntVar(&opts.maxBlock, "maxblock", 1000, "ignore blocks larger than this")
	flag.IntVar(&opts.minToken, "min-token", 0, "drop tokens shorter than this at blocking time")
	flag.IntVar(&opts.shards, "shards", 1, "index partitions behind the scatter-gather coordinator (answers are identical at every count)")
	flag.IntVar(&opts.shardQueue, "shard-queue", 2, "per-shard actor admission queue bound (-shards > 1, or -disk-dir)")
	flag.StringVar(&opts.diskDir, "disk-dir", "", "serve the out-of-core index from this directory (recovered at startup; empty = in-memory)")
	flag.IntVar(&opts.memBudget, "memtable-budget", 32<<20, "per-shard memtable bytes before an automatic checkpoint (-disk-dir mode)")
	flag.IntVar(&opts.diskCache, "disk-cache", 8<<20, "per-shard posting-page cache bytes (-disk-dir mode)")
	flag.IntVar(&opts.compactN, "compact-after", 4, "sealed delta segments per shard before background compaction (-disk-dir mode)")
	flag.BoolVar(&opts.wal, "wal", true, "write-ahead-log every commit before acknowledging it (-disk-dir mode; false trades crash durability for speed)")
	flag.StringVar(&opts.walSync, "wal-sync", "always", "WAL fsync policy: always (group-commit barrier per batch), interval, off (-disk-dir mode)")
	flag.DurationVar(&opts.walInterval, "wal-sync-interval", 100*time.Millisecond, "fsync cadence for -wal-sync=interval")
	flag.DurationVar(&opts.batchWindow, "batch-window", 2*time.Millisecond, "upper bound on waiting for an announced arrival before flushing a micro-batch; a lone request is flushed at once")
	flag.IntVar(&opts.batchMax, "batch-max", 64, "max arrivals per index pass")
	flag.IntVar(&opts.queueDepth, "queue", 1024, "admission queue bound; overflow sheds with 429")
	flag.DurationVar(&opts.retryAfter, "retry-after", time.Second, "advisory back-off sent with 429 responses")
	flag.StringVar(&opts.snapshot, "snapshot", "", "resolver snapshot to load at startup (see /v1/admin/reload)")
	flag.IntVar(&opts.interactiveSlots, "interactive-slots", 64, "concurrent streamed resolves admitted for the interactive tier (0 = unbounded)")
	flag.IntVar(&opts.batchSlots, "batch-slots", 8, "concurrent streamed resolves admitted for the batch tier (0 = unbounded)")
	flag.DurationVar(&opts.interactiveBudget, "interactive-budget", 250*time.Millisecond, "default time budget for interactive-tier streams that set none (0 = unbudgeted)")
	flag.DurationVar(&opts.batchBudget, "batch-budget", 5*time.Second, "default time budget for batch-tier streams that set none (0 = unbudgeted)")
	flag.IntVar(&opts.streamBatch, "stream-batch", 16, "ranked candidates flushed per streamed frame")
	flag.BoolVar(&opts.metrics, "metrics", false, "print the counter table to stderr on exit")
	flag.DurationVar(&opts.requestTimeout, "request-timeout", 5*time.Second, "per-request deadline (0 disables)")
	flag.IntVar(&opts.breakerFailures, "breaker-failures", 5, "consecutive resolve failures that open degraded mode (-1 disables)")
	flag.DurationVar(&opts.breakerCooldown, "breaker-cooldown", time.Second, "how long degraded mode lasts before a recovery probe")
	flag.Var(&opts.faults, "fault", "arm a fault site, e.g. store.save.sync:delay=2s or server.resolve:panic,times=1 (repeatable; chaos testing only)")
	flag.Int64Var(&opts.faultSeed, "fault-seed", 1, "seed for probabilistic fault injection")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until ctx is canceled, then drains
// gracefully. When ready is non-nil the resolved listen address is sent on
// it once the listener is bound (used by tests and by nothing else).
func run(ctx context.Context, opts options, logw io.Writer, ready chan<- string) error {
	scheme, err := parseScheme(opts.scheme)
	if err != nil {
		return err
	}

	// Chaos testing: arm the requested fault sites. The injector reaches
	// the store (snapshot save/load) and the server's resolve path; with
	// no -fault flags both run fault-free at nil-injector cost.
	var inj *fault.Injector
	if len(opts.faults) > 0 {
		inj = fault.New(opts.faultSeed)
		for _, v := range opts.faults {
			name, spec, err := fault.ParseSpec(v)
			if err != nil {
				return err
			}
			inj.Arm(name, spec)
			fmt.Fprintf(logw, "serve: armed fault %s\n", v)
		}
		store.SetInjector(inj)
		defer store.SetInjector(nil)
	}

	srv, err := server.New(server.Config{
		Resolver: incremental.Config{
			Scheme:         scheme,
			K:              opts.k,
			MaxBlockSize:   opts.maxBlock,
			MinTokenLength: opts.minToken,
		},
		Shards:           opts.shards,
		ShardQueueDepth:  opts.shardQueue,
		DiskDir:          opts.diskDir,
		MemtableBudget:   opts.memBudget,
		DiskCacheBytes:   opts.diskCache,
		DiskCompactAfter: opts.compactN,
		WALDisabled:      !opts.wal,
		WALSync:          opts.walSync,
		WALSyncInterval:  opts.walInterval,
		BatchWindow:      opts.batchWindow,
		MaxBatch:         opts.batchMax,
		QueueDepth:       opts.queueDepth,
		RetryAfter:       opts.retryAfter,
		RequestTimeout:   opts.requestTimeout,
		BreakerThreshold: opts.breakerFailures,
		BreakerCooldown:  opts.breakerCooldown,
		Tiers: []budget.Tier{
			{Name: budget.TierInteractive, Slots: opts.interactiveSlots, DefaultBudget: opts.interactiveBudget},
			{Name: budget.TierBatch, Slots: opts.batchSlots, DefaultBudget: opts.batchBudget},
		},
		StreamBatch: opts.streamBatch,
	}, server.WithFault(inj))
	if err != nil {
		return err
	}
	defer srv.Close()
	if opts.snapshot != "" {
		n, err := srv.ReloadFile(opts.snapshot)
		if err != nil {
			return fmt.Errorf("loading snapshot: %w", err)
		}
		fmt.Fprintf(logw, "serve: loaded snapshot %s (%d profiles) in %d ms\n",
			opts.snapshot, n, srv.Metrics().Gauge(server.GaugeReloadUs).Value()/1000)
		// Collect the decoded artifact's garbage now, before the listener
		// opens, rather than during the first requests.
		runtime.GC()
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	// Connection-level deadlines: a client that stalls sending headers or
	// a body, or stops reading its response, cannot pin a connection (and
	// its handler goroutine) forever. Per-request work is bounded
	// separately by -request-timeout inside the handler.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(logw, "serve: listening on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop the listener (in-flight handlers finish),
	// then answer every accepted request before exiting.
	fmt.Fprintln(logw, "serve: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	srv.Close()
	if opts.metrics {
		fmt.Fprint(logw, srv.Metrics().Snapshot().Table())
	}
	fmt.Fprintf(logw, "serve: drained, %d profiles resolved\n", srv.Size())
	return nil
}

func parseScheme(s string) (core.Scheme, error) {
	switch s {
	case "arcs":
		return core.ARCS, nil
	case "cbs":
		return core.CBS, nil
	case "ecbs":
		return core.ECBS, nil
	case "js":
		return core.JS, nil
	default:
		return 0, fmt.Errorf("unknown or unsupported scheme %q: %w (EJS needs global state)", s, core.ErrUnsupportedScheme)
	}
}
