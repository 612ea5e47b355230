// Package obs is the observability and cancellation layer of the
// pipeline. It provides three pieces, all optional and all zero-cost when
// absent:
//
//   - Metrics, a lightweight registry of named atomic counters and gauges
//     that every pipeline stage reports into. Counters are deterministic:
//     for a given pipeline configuration and input they hold the same
//     values for every worker count and whether or not callbacks are
//     installed. Gauges are informational (resolved worker counts) and
//     carry no such guarantee.
//   - Observer, the per-run handle threaded through the stages. It carries
//     the run's context (for cooperative cancellation), the metrics
//     registry, an optional progress callback and optional stage-span
//     hooks. Every method is safe on a nil *Observer, so un-observed
//     entry points simply pass nil.
//   - Meter, a stage-scoped progress accumulator that the sharded
//     parallel loops tick from multiple goroutines.
//
// The hot loops poll cancellation and tick progress once per stride of
// iterations (Stride), never per item, so the observed and un-observed
// paths produce bit-identical results at indistinguishable cost.
package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names, as reported to progress callbacks and span hooks.
const (
	StageBlocking = "blocking"
	StagePurge    = "purge"
	StageFilter   = "filter"
	StageGraph    = "graph"
	StagePrune    = "prune"
)

// Counter names reported by the pipeline. All of them are deterministic
// for a given configuration and input, independent of worker count.
const (
	// CtrBlockingBlocks / CtrBlockingComparisons describe the raw block
	// collection produced by the blocking method.
	CtrBlockingBlocks      = "blocking.blocks"
	CtrBlockingComparisons = "blocking.comparisons"
	// CtrPurgeBlocks / CtrPurgeComparisons describe the collection after
	// Block Purging (equal to the raw counts when purging is disabled).
	CtrPurgeBlocks      = "purge.blocks"
	CtrPurgeComparisons = "purge.comparisons"
	// CtrFilterBlocks / CtrFilterComparisons describe the meta-blocking
	// input after Block Filtering — they always match Result.InputBlocks
	// and Result.InputComparisons.
	CtrFilterBlocks      = "filter.blocks"
	CtrFilterComparisons = "filter.comparisons"
	// CtrGraphNodes is |VB|, the blocking graph's order.
	CtrGraphNodes = "graph.nodes"
	// CtrEdgesWeighted counts edge-weight evaluations during pruning:
	// one per edge per edge-centric pass (CEP, WEP), which weighs an edge
	// from its emitting endpoint, and two per edge for the node-centric
	// pass, which weighs it from both endpoints. Every worker count runs
	// the same passes, so the count is worker-independent.
	CtrEdgesWeighted = "prune.edges_weighted"
	// CtrExactMeanFallbacks counts the neighborhoods whose weight-based
	// threshold (the WNP family) fell back to the exact mean because an
	// incident weight lay within the naive mean's error band. It depends
	// on the input only, not on the worker count.
	CtrExactMeanFallbacks = "prune.exact_mean_fallbacks"
	// CtrPairsRetained is the number of retained comparisons.
	CtrPairsRetained = "prune.pairs"
)

// Gauge names reported by the pipeline: the resolved worker count of each
// parallel stage. Gauges depend on the Workers knob and the host, and are
// therefore excluded from the determinism guarantee of the counters.
const (
	GaugeWorkersBlocking = "workers.blocking"
	GaugeWorkersFilter   = "workers.filter"
	GaugeWorkersGraph    = "workers.graph"
	GaugeWorkersPrune    = "workers.prune"
)

// Stride is how many hot-loop iterations pass between cancellation polls
// and progress ticks. It must be a power of two.
const Stride = 1 << 10

// StrideMask masks an iteration index down to its position in the stride.
const StrideMask = Stride - 1

// ProgressFunc receives progress updates for a stage: done work units out
// of total. Callbacks may be invoked concurrently from multiple worker
// goroutines and must be safe for concurrent use.
type ProgressFunc func(stage string, done, total int64)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are safe on a nil *Counter (no-ops), which is
// what a nil registry hands out.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value gauge. Like Counter, all methods are safe
// on a nil *Gauge.
type Gauge struct{ v atomic.Int64 }

// Set records the latest value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the latest value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Text is an atomic last-value string — the registry's instrument for
// things a number cannot carry, like the most recent error a failure path
// observed. Like Counter and Gauge, all methods are safe on a nil *Text.
type Text struct{ v atomic.Value }

// Set records the latest value.
func (t *Text) Set(s string) {
	if t != nil {
		t.v.Store(s)
	}
}

// Value returns the latest value ("" for a nil or unset text).
func (t *Text) Value() string {
	if t == nil {
		return ""
	}
	s, _ := t.v.Load().(string)
	return s
}

// Metrics is a registry of named counters, gauges and texts, safe for
// concurrent use. Stages look their instruments up once per stage
// (Counter/Gauge/Text take a lock) and then update them with lock-free
// atomics.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	texts    map[string]*Text
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		texts:    make(map[string]*Text),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil counter, whose methods are no-ops.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil gauge, whose methods are no-ops.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Text returns the named text, creating it on first use. A nil registry
// returns a nil text, whose methods are no-ops.
func (m *Metrics) Text(name string) *Text {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.texts[name]
	if t == nil {
		t = &Text{}
		if m.texts == nil {
			m.texts = make(map[string]*Text)
		}
		m.texts[name] = t
	}
	return t
}

// Snapshot returns an immutable copy of every instrument's current value.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Texts: map[string]string{}}
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, c := range m.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range m.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, t := range m.texts {
		s.Texts[name] = t.Value()
	}
	return s
}

// Snapshot is a point-in-time copy of a registry, attached to Result.
type Snapshot struct {
	// Counters holds the deterministic per-stage counters.
	Counters map[string]int64
	// Gauges holds the informational gauges (resolved worker counts).
	Gauges map[string]int64
	// Texts holds the string instruments (e.g. last observed errors).
	// Omitted from JSON when no text was ever set.
	Texts map[string]string `json:",omitempty"`
}

// Counter returns a counter's value (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Text returns a text's value ("" when absent).
func (s Snapshot) Text(name string) string { return s.Texts[name] }

// Table formats the snapshot as an aligned two-column table, counters
// first, then gauges, each sorted by name.
func (s Snapshot) Table() string {
	var b strings.Builder
	width := 0
	for name := range s.Counters {
		width = max(width, len(name))
	}
	for name := range s.Gauges {
		width = max(width, len(name))
	}
	for name := range s.Texts {
		width = max(width, len(name))
	}
	section := func(title string, vals map[string]int64) {
		if len(vals) == 0 {
			return
		}
		names := make([]string, 0, len(vals))
		for name := range vals {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%s\n", title)
		for _, name := range names {
			fmt.Fprintf(&b, "  %-*s %d\n", width, name, vals[name])
		}
	}
	section("counters", s.Counters)
	section("gauges", s.Gauges)
	if len(s.Texts) > 0 {
		names := make([]string, 0, len(s.Texts))
		for name := range s.Texts {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "texts\n")
		for _, name := range names {
			fmt.Fprintf(&b, "  %-*s %q\n", width, name, s.Texts[name])
		}
	}
	return b.String()
}

// Observer is the per-run observability handle: context cancellation,
// metrics, progress and span hooks. A nil *Observer is valid everywhere
// and turns every operation into a no-op.
type Observer struct {
	ctx       context.Context
	done      <-chan struct{}
	metrics   *Metrics
	progress  ProgressFunc
	spanStart func(stage string)
	spanEnd   func(stage string, elapsed time.Duration)
}

// Option customizes an Observer.
type Option func(*Observer)

// WithMetrics attaches a metrics registry.
func WithMetrics(m *Metrics) Option {
	return func(o *Observer) { o.metrics = m }
}

// WithProgress attaches a progress callback. The callback may be invoked
// concurrently from multiple worker goroutines.
func WithProgress(fn ProgressFunc) Option {
	return func(o *Observer) { o.progress = fn }
}

// WithSpanHooks attaches stage-span hooks: start fires when a stage
// begins, end when it completes, with the elapsed wall-clock time. Either
// may be nil.
func WithSpanHooks(start func(stage string), end func(stage string, elapsed time.Duration)) Option {
	return func(o *Observer) { o.spanStart, o.spanEnd = start, end }
}

// New builds an Observer bound to ctx. A nil ctx means no cancellation.
func New(ctx context.Context, opts ...Option) *Observer {
	o := &Observer{ctx: ctx}
	if ctx != nil {
		o.done = ctx.Done()
	}
	for _, opt := range opts {
		if opt != nil {
			opt(o)
		}
	}
	return o
}

// Canceled reports whether the run's context has been canceled. It is the
// poll the hot loops issue once per Stride iterations; on a nil Observer
// (or one without a context) it is a single branch.
func (o *Observer) Canceled() bool {
	if o == nil || o.done == nil {
		return false
	}
	select {
	case <-o.done:
		return true
	default:
		return false
	}
}

// Err returns the context's error (context.Canceled, DeadlineExceeded) or
// nil. Stage drivers call it at stage boundaries to decide whether to
// abort the run.
func (o *Observer) Err() error {
	if o == nil || o.ctx == nil {
		return nil
	}
	return o.ctx.Err()
}

// Metrics returns the attached registry (possibly nil).
func (o *Observer) Metrics() *Metrics {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Counter returns a named counter from the attached registry; safe (and a
// no-op sink) on a nil Observer or registry.
func (o *Observer) Counter(name string) *Counter { return o.Metrics().Counter(name) }

// Gauge returns a named gauge from the attached registry; safe on a nil
// Observer or registry.
func (o *Observer) Gauge(name string) *Gauge { return o.Metrics().Gauge(name) }

// Snapshot returns the attached registry's current state, or a zero
// Snapshot (nil maps) when the Observer has no registry — so callers can
// distinguish "no metrics requested" from "all counters zero".
func (o *Observer) Snapshot() Snapshot {
	if m := o.Metrics(); m != nil {
		return m.Snapshot()
	}
	return Snapshot{}
}

// StartSpan fires the stage-start hook and returns a function that fires
// the stage-end hook with the elapsed time. Always returns a callable.
func (o *Observer) StartSpan(stage string) func() {
	if o == nil || (o.spanStart == nil && o.spanEnd == nil) {
		return func() {}
	}
	if o.spanStart != nil {
		o.spanStart(stage)
	}
	end := o.spanEnd
	if end == nil {
		return func() {}
	}
	start := time.Now()
	return func() { end(stage, time.Since(start)) }
}

// NewMeter returns a progress meter for one stage, or nil when no
// progress callback is installed — a nil *Meter makes Add a no-op, so hot
// loops tick unconditionally.
func (o *Observer) NewMeter(stage string, total int64) *Meter {
	if o == nil || o.progress == nil {
		return nil
	}
	return &Meter{o: o, stage: stage, total: total}
}

// Meter accumulates done work units for one stage and forwards each batch
// to the progress callback. Safe for concurrent use.
type Meter struct {
	o     *Observer
	stage string
	total int64
	done  atomic.Int64
}

// Add records n completed work units and fires the progress callback.
func (m *Meter) Add(n int64) {
	if m == nil || n <= 0 {
		return
	}
	m.o.progress(m.stage, m.done.Add(n), m.total)
}
