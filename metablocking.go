// Package metablocking is the public API of the Enhanced Meta-blocking
// library, a Go implementation of Papadakis et al., "Scaling Entity
// Resolution to Large, Heterogeneous Data with Enhanced Meta-blocking"
// (EDBT 2016).
//
// The package re-exports the building blocks (entity model, blocking
// methods, block cleaning, meta-blocking pruning, matching, evaluation)
// and wires them into a configurable Pipeline:
//
//	ds := metablocking.GenerateDataset(metablocking.D2C, 0.5)
//	p := metablocking.Pipeline{
//		Blocking:    metablocking.TokenBlocking{},
//		FilterRatio: 0.8,
//		Scheme:      metablocking.JS,
//		Algorithm:   metablocking.ReciprocalWNP,
//	}
//	res, err := p.Run(ds.Collection)
//
// The result carries the retained comparisons and, when a ground truth is
// supplied, the paper's effectiveness measures (PC, PQ, RR).
package metablocking

import (
	"context"
	"errors"
	"time"

	"metablocking/internal/block"
	"metablocking/internal/blocking"
	"metablocking/internal/blockproc"
	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/entity"
	"metablocking/internal/eval"
	"metablocking/internal/incremental"
	"metablocking/internal/matching"
	"metablocking/internal/obs"
	"metablocking/internal/par"
	"metablocking/internal/progressive"
	"metablocking/internal/store"
	"metablocking/internal/supervised"
)

// Sentinel errors of the public API; test for them with errors.Is.
var (
	// ErrEmptyCollection is returned when the pipeline input is nil or has
	// no profiles.
	ErrEmptyCollection = errors.New("metablocking: empty collection")
	// ErrInvalidFilterRatio is returned when FilterRatio is NaN or falls
	// outside [0, 1].
	ErrInvalidFilterRatio = errors.New("metablocking: FilterRatio must be in [0, 1]")
	// ErrGraphFreeNeedsFilter is returned when GraphFree is set without a
	// FilterRatio — the graph-free workflow of Figure 7(b) is Block
	// Filtering followed by Comparison Propagation, so a ratio is required.
	ErrGraphFreeNeedsFilter = errors.New("metablocking: GraphFree requires a FilterRatio")
	// ErrUnsupportedScheme is returned (wrapped with component context)
	// wherever a weighting scheme cannot be evaluated — e.g. by
	// NewIncrementalResolver for EJS, whose global node degrees the
	// incremental setting cannot maintain. It aliases the shared
	// internal sentinel, so errors.Is matches errors from every layer.
	ErrUnsupportedScheme = core.ErrUnsupportedScheme
)

// PanicError is a worker panic converted into an error: RunContext
// recovers panics raised anywhere in the pipeline — including inside
// parallel worker goroutines, which drain before the panic propagates —
// and returns one of these (retrieve with errors.As) instead of crashing
// the process. Value holds the recovered panic value, Stack the panicking
// goroutine's stack trace.
type PanicError = par.PanicError

// Crash-safe artifact errors of internal/store, re-exported so callers can
// classify load failures without importing internal packages.
var (
	// ErrCorruptArtifact marks a stored artifact whose checksum, framing
	// or payload failed verification — a torn or bit-flipped file.
	ErrCorruptArtifact = store.ErrCorruptArtifact
	// ErrVersionMismatch marks an artifact written by an incompatible
	// format version.
	ErrVersionMismatch = store.ErrVersionMismatch
)

// Entity model.
type (
	// Profile is a uniquely identified collection of name–value pairs.
	Profile = entity.Profile
	// Attribute is a single name–value pair.
	Attribute = entity.Attribute
	// Collection is the input of an ER task.
	Collection = entity.Collection
	// GroundTruth is the set of known duplicate pairs.
	GroundTruth = entity.GroundTruth
	// Pair is an unordered pair of profile IDs.
	Pair = entity.Pair
	// ID identifies a profile.
	ID = entity.ID
)

// NewDirty builds a Dirty ER collection (deduplication).
func NewDirty(profiles []Profile) *Collection { return entity.NewDirty(profiles) }

// NewCleanClean builds a Clean-Clean ER collection (record linkage).
func NewCleanClean(e1, e2 []Profile) *Collection { return entity.NewCleanClean(e1, e2) }

// NewGroundTruth builds a ground truth from duplicate pairs.
func NewGroundTruth(pairs []Pair) *GroundTruth { return entity.NewGroundTruth(pairs) }

// Blocking methods.
type (
	// BlockingMethod builds a block collection from an entity collection.
	BlockingMethod = blocking.Method
	// TokenBlocking is the paper's primary schema-agnostic method.
	TokenBlocking = blocking.TokenBlocking
	// QGramsBlocking keys on character q-grams.
	QGramsBlocking = blocking.QGramsBlocking
	// SuffixArrayBlocking keys on token suffixes.
	SuffixArrayBlocking = blocking.SuffixArrayBlocking
	// AttributeClusteringBlocking keys tokens within attribute clusters.
	AttributeClusteringBlocking = blocking.AttributeClusteringBlocking
	// StandardBlocking assigns one key per profile (disjoint blocks).
	StandardBlocking = blocking.StandardBlocking
	// SortedNeighborhood slides a window over key-sorted profiles.
	SortedNeighborhood = blocking.SortedNeighborhood
	// ExtendedQGramsBlocking keys on combinations of q-grams.
	ExtendedQGramsBlocking = blocking.ExtendedQGramsBlocking
	// ExtendedSortedNeighborhood windows over distinct sorted keys.
	ExtendedSortedNeighborhood = blocking.ExtendedSortedNeighborhood
	// CanopyClustering is the classic redundancy-negative method.
	CanopyClustering = blocking.CanopyClustering
	// MinHashBlocking is LSH blocking over token-set signatures.
	MinHashBlocking = blocking.MinHashBlocking
	// Blocks is a block collection.
	Blocks = block.Collection
)

// Weighting schemes and pruning algorithms (paper Fig. 3).
type (
	// Scheme selects the edge-weighting scheme.
	Scheme = core.Scheme
	// Algorithm selects the pruning algorithm.
	Algorithm = core.Algorithm
)

// Weighting schemes (Fig. 4).
const (
	ARCS = core.ARCS
	CBS  = core.CBS
	ECBS = core.ECBS
	JS   = core.JS
	EJS  = core.EJS
)

// Pruning algorithms (§3, §5).
const (
	CEP           = core.CEP
	CNP           = core.CNP
	WEP           = core.WEP
	WNP           = core.WNP
	RedefinedCNP  = core.RedefinedCNP
	ReciprocalCNP = core.ReciprocalCNP
	RedefinedWNP  = core.RedefinedWNP
	ReciprocalWNP = core.ReciprocalWNP
)

// Synthetic datasets (substitutes for the paper's benchmarks; DESIGN.md §5).
type Dataset = datagen.Dataset

// DatasetID names one of the six built-in benchmark profiles.
type DatasetID int

// The six benchmark datasets of the paper (§6.1), plus two domain-flavored
// families rendering the same statistical structure as readable records.
const (
	D1C DatasetID = iota
	D2C
	D3C
	D1D
	D2D
	D3D
	// BIB is a bibliographic Clean-Clean family (DBLP–Scholar-like, the
	// paper's D1 scenario) with human-readable titles, authors and venues.
	BIB
	// MOV is a movies Clean-Clean family (IMDB–DBpedia-like, the paper's
	// D2 scenario) with a terse catalog side and a verbose encyclopedia
	// side.
	MOV
)

// GenerateDataset builds one of the built-in synthetic benchmarks at the
// given scale (1.0 = default laptop-friendly size).
func GenerateDataset(id DatasetID, scale float64) Dataset {
	switch id {
	case D1C:
		return datagen.D1C(scale)
	case D2C:
		return datagen.D2C(scale)
	case D3C:
		return datagen.D3C(scale)
	case D1D:
		return datagen.D1D(scale)
	case D2D:
		return datagen.D2D(scale)
	case D3D:
		return datagen.D3D(scale)
	case BIB:
		return datagen.BIB(scale)
	case MOV:
		return datagen.MOV(scale)
	default:
		panic("metablocking: unknown dataset id")
	}
}

// Pipeline is the end-to-end workflow of Figure 7(a): blocking → Block
// Purging → Block Filtering → graph-based Meta-blocking. A zero Pipeline
// runs Token Blocking with purging on, no filtering, and the zero-valued
// configuration ARCS + CEP; set Scheme and Algorithm explicitly for the
// paper's recommended configurations (e.g. JS + ReciprocalWNP).
type Pipeline struct {
	// Blocking builds the redundancy-positive input blocks; nil defaults
	// to TokenBlocking.
	Blocking BlockingMethod
	// DisablePurging skips Block Purging (enabled by default, as in the
	// paper's setup §6.2).
	DisablePurging bool
	// FilterRatio enables Block Filtering with the given ratio r when in
	// (0, 1]; the paper's tuned pre-processing value is 0.8.
	FilterRatio float64
	// GraphFree skips the blocking graph entirely (Figure 7(b)): Block
	// Filtering (FilterRatio) followed by Comparison Propagation. Pairs
	// come out with A ascending, identically for any Workers.
	GraphFree bool
	// Scheme is the edge-weighting scheme (zero value: ARCS).
	Scheme Scheme
	// Algorithm is the pruning algorithm (zero value: CEP).
	Algorithm Algorithm
	// OriginalWeighting switches to Algorithm 2 edge weighting.
	OriginalWeighting bool
	// Workers parallelizes every stage of the pipeline — blocking (for the
	// sharded methods: Token, Q-grams, Suffix Arrays, Extended Q-grams),
	// Block Filtering, graph construction and pruning, or the graph-free
	// workflow's Comparison Propagation: 0 or 1 = one worker, negative =
	// one worker per CPU, positive = that many workers. Every stage
	// produces bit-identical output for any worker count, so Pairs come out
	// in the same order for every value. OriginalWeighting prunes on one
	// worker. A blocking method whose own Workers field is already non-zero
	// keeps it.
	Workers int
}

// Observability. A Metrics registry collects per-stage counters and worker
// gauges; pass one to RunContext via WithMetrics and read the snapshot from
// Result.Metrics (or the registry itself, which is safe to share across
// concurrent runs — counters accumulate).
type (
	// Metrics is a registry of named counters and gauges.
	Metrics = obs.Metrics
	// MetricsSnapshot is a point-in-time copy of a registry's values.
	MetricsSnapshot = obs.Snapshot
	// ProgressFunc receives per-stage progress: done out of total units of
	// work (profiles for blocking, blocks for filtering, entities for
	// graph construction, traversal steps for pruning). It is called
	// concurrently from worker goroutines and must be safe and fast.
	ProgressFunc = obs.ProgressFunc
	// RunOption configures one RunContext call.
	RunOption = obs.Option
)

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// WithMetrics directs the run's counters and gauges into the registry and
// fills Result.Metrics with its snapshot.
func WithMetrics(m *Metrics) RunOption { return obs.WithMetrics(m) }

// WithProgress installs a progress callback, invoked about once per 1024
// units of work per worker.
func WithProgress(fn ProgressFunc) RunOption { return obs.WithProgress(fn) }

// WithSpanHooks installs stage-span hooks: start fires when a pipeline
// stage begins, end when it finishes with the elapsed wall-clock time.
// Stage names are "blocking", "purge", "filter", "graph" and "prune".
func WithSpanHooks(start func(stage string), end func(stage string, elapsed time.Duration)) RunOption {
	return obs.WithSpanHooks(start, end)
}

// Stages breaks a pipeline run's wall-clock time down by stage.
type Stages struct {
	// Blocking is the time spent building the input blocks.
	Blocking time.Duration
	// Filtering is the time spent cleaning them (Block Purging plus Block
	// Filtering).
	Filtering time.Duration
	// Graph is the time spent building the blocking graph (Entity Index
	// and, for EJS, the degree pass).
	Graph time.Duration
	// Prune is the time spent pruning the graph's edges or, for a
	// graph-free run, in Comparison Propagation.
	Prune time.Duration
}

// Result is a pipeline run's output.
type Result struct {
	// InputBlocks counts the blocks fed to meta-blocking after cleaning.
	InputBlocks int
	// InputComparisons is ‖B‖ of the cleaned input blocks.
	InputComparisons int64
	// Pairs holds the retained comparisons.
	Pairs []Pair
	// OTime is the total overhead time (blocking excluded, cleaning and
	// pruning included), mirroring the paper's OTime of restructuring.
	OTime time.Duration
	// Stages breaks the run down by stage; unlike OTime it includes the
	// blocking time.
	Stages Stages
	// Metrics is the run's counter/gauge snapshot, taken from the registry
	// passed via WithMetrics. Zero when the run had no registry.
	Metrics MetricsSnapshot
}

// Run executes the pipeline on a collection. It is RunContext with a
// background context and no options.
func (p Pipeline) Run(c *Collection) (*Result, error) {
	return p.RunContext(context.Background(), c)
}

// RunContext executes the pipeline on a collection under a context.
//
// When ctx is canceled the run aborts cooperatively — every stage polls
// the context at shard boundaries, all worker goroutines drain, partial
// output is discarded — and RunContext returns ctx.Err(). Options attach
// observability: WithMetrics collects per-stage counters and worker
// gauges (snapshotted into Result.Metrics), WithProgress streams per-stage
// progress, WithSpanHooks brackets each stage. All of it is optional and
// the retained pairs and counter values are identical whether or not any
// option is set, serial or parallel.
//
// A panic anywhere in the run — including inside parallel worker
// goroutines, which all drain first — is recovered and returned as a
// *PanicError instead of crashing the caller.
func (p Pipeline) RunContext(ctx context.Context, c *Collection, opts ...RunOption) (res *Result, err error) {
	defer recoverPanic(&res, &err)
	r, err := p.clean(ctx, c, opts)
	if err != nil {
		return nil, err
	}
	o := r.o
	if p.GraphFree {
		endSpan := o.StartSpan(obs.StagePrune)
		r.res.Pairs = blockproc.ComparisonPropagation{Workers: p.Workers, Obs: o}.Apply(r.blocks)
		endSpan()
		o.Counter(obs.CtrPairsRetained).Add(int64(len(r.res.Pairs)))
		return r.finish(true, nil)
	}
	run := core.Run(r.blocks, p.coreConfig(o))
	r.res.Pairs = run.Pairs
	r.res.Stages.Graph, r.res.Stages.Prune = run.GraphTime, run.PruneTime
	return r.finish(false, nil)
}

// PairSink receives a run's retained comparisons from Pipeline.Stream, one
// ordered chunk at a time. Stream calls it on its worker goroutines, so it
// must be safe for concurrent use: it is where per-chunk work (evaluation,
// matching, encoding) goes. The commit it returns, if not nil, runs on
// Stream's goroutine, one at a time and in chunk order, so it may write to
// a file or fold counts without locking. The chunks concatenate to
// RunContext's Pairs; a chunk never splits the pairs of one A, so the
// redundant copies of a pair that CNP and WNP retain share a chunk. A chunk
// is valid until its commit returns (until the sink returns, when the
// commit is nil) and must not be kept after.
type PairSink func(chunk []Pair) (commit func() error)

// Stream runs the pipeline like RunContext but hands the retained
// comparisons to sink in ordered chunks instead of returning them: the
// result's Pairs is nil and every other field and counter is RunContext's.
// Each chunk is handed over as soon as it is decided, and the whole answer
// is never held. Stream holds at most two chunks per worker that sink has
// seen and not yet committed.
//
// OTime, and Stages.Prune, run to the last commit, so they include the
// sink's work. Stream returns the first error a commit returns, ctx.Err()
// when ctx is canceled — after which no further commit runs — and a panic,
// in the pipeline or in sink, as a *PanicError.
func (p Pipeline) Stream(ctx context.Context, c *Collection, sink PairSink, opts ...RunOption) (res *Result, err error) {
	defer recoverPanic(&res, &err)
	r, err := p.clean(ctx, c, opts)
	if err != nil {
		return nil, err
	}
	o := r.o
	var retained int64
	guarded := func(chunk []Pair) func() error {
		commit, n := sink(chunk), int64(len(chunk))
		return func() error {
			if err := o.Err(); err != nil {
				return err
			}
			retained += n
			if commit == nil {
				return nil
			}
			return commit()
		}
	}
	if p.GraphFree {
		endSpan := o.StartSpan(obs.StagePrune)
		err := blockproc.ComparisonPropagation{Workers: p.Workers, Obs: o}.Emit(r.blocks, guarded)
		endSpan()
		o.Counter(obs.CtrPairsRetained).Add(retained)
		return r.finish(true, err)
	}
	run, err := core.RunTo(r.blocks, p.coreConfig(o), guarded)
	r.res.Stages.Graph, r.res.Stages.Prune = run.GraphTime, run.PruneTime
	return r.finish(false, err)
}

// recoverPanic turns a panic of the run into a *PanicError result.
func recoverPanic(res **Result, err *error) {
	if pe := par.Recovered(recover()); pe != nil {
		*res, *err = nil, pe
	}
}

// cleaned is a run past the part RunContext and Stream share: the cleaned
// blocks, the run's observer, a Result carrying the input counts and the
// blocking and filtering times, and the instant the overhead time starts.
type cleaned struct {
	blocks *block.Collection
	o      *obs.Observer
	res    *Result
	start  time.Time
}

// clean is the part of a run RunContext and Stream share: it validates the
// input and runs blocking, Block Purging and Block Filtering.
func (p Pipeline) clean(ctx context.Context, c *Collection, opts []RunOption) (*cleaned, error) {
	if c == nil || c.Size() == 0 {
		return nil, ErrEmptyCollection
	}
	method := p.Blocking
	if method == nil {
		method = TokenBlocking{}
	}
	if !(p.FilterRatio >= 0 && p.FilterRatio <= 1) { // NaN fails both comparisons
		return nil, ErrInvalidFilterRatio
	}
	if p.GraphFree && p.FilterRatio == 0 {
		return nil, ErrGraphFreeNeedsFilter
	}
	o := obs.New(ctx, opts...)

	blockStart := time.Now()
	endSpan := o.StartSpan(obs.StageBlocking)
	blocks := blocking.BuildObserved(withWorkers(method, p.Workers), c, o)
	endSpan()
	if err := o.Err(); err != nil {
		return nil, err
	}
	o.Counter(obs.CtrBlockingBlocks).Add(int64(blocks.Len()))
	o.Counter(obs.CtrBlockingComparisons).Add(blocks.Comparisons())

	start := time.Now()
	res := &Result{Stages: Stages{Blocking: start.Sub(blockStart)}}
	if !p.DisablePurging {
		endSpan = o.StartSpan(obs.StagePurge)
		blocks = blockproc.BlockPurging{}.Apply(blocks)
		endSpan()
	}
	o.Counter(obs.CtrPurgeBlocks).Add(int64(blocks.Len()))
	o.Counter(obs.CtrPurgeComparisons).Add(blocks.Comparisons())
	if p.GraphFree {
		// RR of a graph-free run is reported against the purged blocks, so
		// the filter.* counters describe the input of Block Filtering here.
		res.InputBlocks = blocks.Len()
		res.InputComparisons = blocks.Comparisons()
	}
	if p.FilterRatio > 0 {
		endSpan = o.StartSpan(obs.StageFilter)
		blocks = blockproc.BlockFiltering{Ratio: p.FilterRatio, Workers: p.Workers, Obs: o}.Apply(blocks)
		endSpan()
		if err := o.Err(); err != nil {
			return nil, err
		}
	}
	res.Stages.Filtering = time.Since(start)
	if !p.GraphFree {
		res.InputBlocks = blocks.Len()
		res.InputComparisons = blocks.Comparisons()
	}
	o.Counter(obs.CtrFilterBlocks).Add(int64(res.InputBlocks))
	o.Counter(obs.CtrFilterComparisons).Add(res.InputComparisons)
	return &cleaned{blocks: blocks, o: o, res: res, start: start}, nil
}

// coreConfig is the graph-based stages' configuration.
func (p Pipeline) coreConfig(o *obs.Observer) core.Config {
	return core.Config{
		Scheme:            p.Scheme,
		Algorithm:         p.Algorithm,
		OriginalWeighting: p.OriginalWeighting,
		Workers:           p.Workers,
		Obs:               o,
	}
}

// finish completes the run's result — the overhead time since start, a
// graph-free run's prune time (the overhead after filtering), the metrics
// snapshot — or returns the run's error: err, or the context's when the
// run was canceled.
func (r *cleaned) finish(graphFree bool, err error) (*Result, error) {
	if err == nil {
		err = r.o.Err()
	}
	if err != nil {
		return nil, err
	}
	res := r.res
	res.OTime = time.Since(r.start)
	if graphFree {
		res.Stages.Prune = res.OTime - res.Stages.Filtering
	}
	res.Metrics = r.o.Snapshot()
	return res, nil
}

// withWorkers propagates the pipeline's worker count into the blocking
// methods with sharded builds (the blocking.WorkerSetter implementations);
// a method whose own Workers field is already non-zero keeps it.
func withWorkers(m BlockingMethod, workers int) BlockingMethod {
	if workers == 0 {
		return m
	}
	if ws, ok := m.(blocking.WorkerSetter); ok {
		return ws.WithWorkers(workers)
	}
	return m
}

// Evaluate measures retained comparisons against a ground truth; baseline
// is the comparison count RR is computed against (e.g. the input blocks'
// ‖B‖ or the brute-force ‖E‖).
func Evaluate(pairs []Pair, gt *GroundTruth, baseline int64) eval.Report {
	return eval.EvaluatePairs(pairs, gt, baseline)
}

// Report re-exports the evaluation report type.
type Report = eval.Report

// NewJaccardMatcher builds the paper's demonstration matcher.
func NewJaccardMatcher(c *Collection, threshold float64) *matching.JaccardMatcher {
	return matching.NewJaccardMatcher(c, threshold)
}

// Matches applies the matcher to the retained comparisons and returns the
// pairs at or above the matcher's threshold.
func Matches(m *matching.JaccardMatcher, pairs []Pair) []Pair {
	var out []Pair
	seen := make(map[Pair]struct{}, len(pairs))
	for _, p := range pairs {
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		if m.Match(p.A, p.B) {
			out = append(out, p)
		}
	}
	return out
}

// Cluster groups matched pairs into equivalence clusters (Dirty ER output).
func Cluster(c *Collection, matches []Pair) [][]ID {
	return matching.Cluster(c.Size(), matches)
}

// Incremental Entity Resolution (the paper's future-work direction, §7).
type (
	// IncrementalResolver blocks arriving profiles on the fly and emits
	// pruned candidate comparisons per arrival.
	IncrementalResolver = incremental.Resolver
	// IncrementalConfig tunes the incremental resolver.
	IncrementalConfig = incremental.Config
	// Candidate is a pruned comparison suggestion with its edge weight.
	Candidate = incremental.Candidate
)

// NewIncrementalResolver builds an empty incremental resolver.
func NewIncrementalResolver(cfg IncrementalConfig) (*IncrementalResolver, error) {
	return incremental.NewResolver(cfg)
}

// Progressive (pay-as-you-go) Entity Resolution (§3's efficiency-intensive
// application class).
type (
	// ProgressiveScheduler serves comparisons heaviest-first.
	ProgressiveScheduler = progressive.Scheduler
	// Comparison is one prioritized comparison with its edge weight.
	Comparison = progressive.Comparison
)

// NewProgressiveScheduler prioritizes a block collection's comparisons by
// edge weight. Build the blocks with a Pipeline's blocking stage or any
// BlockingMethod, clean them (purging/filtering), then schedule.
func NewProgressiveScheduler(blocks *Blocks, scheme Scheme) *ProgressiveScheduler {
	return progressive.NewScheduler(blocks, scheme)
}

// Supervised Meta-blocking (paper §2, ref [23]).
type (
	// SupervisedConfig tunes supervised meta-blocking.
	SupervisedConfig = supervised.Config
	// SupervisedResult carries the retained pairs and trained model.
	SupervisedResult = supervised.Result
)

// RunSupervised trains an edge classifier on a labelled sample drawn from
// the ground truth and retains the comparisons classified as matches.
func RunSupervised(blocks *Blocks, gt *GroundTruth, cfg SupervisedConfig) (*SupervisedResult, error) {
	return supervised.Run(blocks, gt, cfg)
}

// SaveBlocks persists a block collection to a file; LoadBlocks restores
// it. Blocking a large collection once and re-running meta-blocking
// configurations against the saved blocks is the intended workflow.
func SaveBlocks(path string, blocks *Blocks) error { return store.SaveBlocksFile(path, blocks) }

// LoadBlocks restores a block collection saved with SaveBlocks.
func LoadBlocks(path string) (*Blocks, error) { return store.LoadBlocksFile(path) }

// BuildBlocks runs a blocking method plus the paper's standard cleaning
// (Block Purging, then Block Filtering when ratio > 0) and returns the
// block collection — the input for schedulers and supervised runs. An
// optional workers argument parallelizes the sharded blocking methods and
// Block Filtering exactly as Pipeline.Workers does; the output is
// bit-identical for any worker count.
func BuildBlocks(c *Collection, method BlockingMethod, filterRatio float64, workers ...int) *Blocks {
	w := 0
	if len(workers) > 0 {
		w = workers[0]
	}
	if method == nil {
		method = TokenBlocking{}
	}
	blocks := withWorkers(method, w).Build(c)
	blocks = blockproc.BlockPurging{}.Apply(blocks)
	if filterRatio > 0 {
		blocks = blockproc.BlockFiltering{Ratio: filterRatio, Workers: w}.Apply(blocks)
	}
	return blocks
}
