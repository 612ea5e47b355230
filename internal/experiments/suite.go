// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic benchmark datasets: Table 1 (block
// collections before/after Block Filtering), Table 2 (dataset
// characteristics), Figure 10 (filtering-ratio sweep), Table 3 (existing
// pruning schemes before/after Block Filtering), Table 4 (Redefined and
// Reciprocal pruning), Table 5 (Optimized Edge Weighting) and Table 6
// (baselines: Graph-free Meta-blocking and Iterative Blocking).
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"metablocking/internal/block"
	"metablocking/internal/blocking"
	"metablocking/internal/blockproc"
	"metablocking/internal/datagen"
	"metablocking/internal/entity"
	"metablocking/internal/eval"
	"metablocking/internal/matching"
	"metablocking/internal/obs"
)

// FilterRatio is the Block Filtering ratio the paper tunes for
// pre-processing (§6.2).
const FilterRatio = 0.80

// Suite prepares the six datasets once and runs experiments against them.
type Suite struct {
	// Scale multiplies dataset sizes; 1.0 is the default laptop scale.
	Scale float64
	// Out receives the rendered tables; nil discards them.
	Out io.Writer
	// Workers parallelizes dataset preparation (Token Blocking and Block
	// Filtering): 0 or 1 = one worker, negative = GOMAXPROCS. The prepared
	// blocks are identical for any value.
	Workers int
	// Metrics, when non-nil, aggregates the pipeline counters of every
	// meta-blocking run the suite performs (cmd/experiments -metrics).
	Metrics *obs.Metrics

	prepared []*Prepared
}

// Prepared bundles one dataset with its derived block collections.
type Prepared struct {
	Dataset datagen.Dataset
	// Original is the Token Blocking output after Block Purging — the
	// "original block collection" of Table 1(a).
	Original *block.Collection
	// Filtered is Original restructured by Block Filtering with r=0.80 —
	// Table 1(b).
	Filtered *block.Collection
	// BlockingTime is OTime(B): extracting Original from the entities.
	BlockingTime time.Duration
	// FilteringTime is OTime of the Block Filtering step alone.
	FilteringTime time.Duration

	matchCost time.Duration // measured per-comparison matching cost
}

// obsHandle returns an observability handle reporting into the suite's
// registry, or nil (a no-op handle) when no registry is attached.
func (s *Suite) obsHandle() *obs.Observer {
	if s.Metrics == nil {
		return nil
	}
	return obs.New(context.Background(), obs.WithMetrics(s.Metrics))
}

// NewSuite builds a suite at the given scale.
func NewSuite(scale float64, out io.Writer) *Suite {
	if out == nil {
		out = io.Discard
	}
	return &Suite{Scale: scale, Out: out}
}

// Datasets prepares (once) and returns the six datasets with their block
// collections, in the paper's order D1C, D2C, D3C, D1D, D2D, D3D.
func (s *Suite) Datasets() []*Prepared {
	if s.prepared != nil {
		return s.prepared
	}
	for _, ds := range datagen.AllDatasets(s.Scale) {
		p := &Prepared{Dataset: ds}

		start := time.Now()
		blocks := blocking.TokenBlocking{Workers: s.Workers}.Build(ds.Collection)
		blocks = blockproc.BlockPurging{}.Apply(blocks)
		p.BlockingTime = time.Since(start)
		p.Original = blocks

		start = time.Now()
		p.Filtered = blockproc.BlockFiltering{Ratio: FilterRatio, Workers: s.Workers}.Apply(blocks)
		p.FilteringTime = time.Since(start)

		p.measureMatchCost()
		s.prepared = append(s.prepared, p)
	}
	return s.prepared
}

// measureMatchCost samples the Jaccard matcher over random co-occurring
// pairs to estimate the per-comparison matching cost, which extrapolates
// RTime for collections too large to resolve exhaustively (the paper does
// the same for D3, Table 2).
func (p *Prepared) measureMatchCost() {
	const samples = 20000
	m := matching.NewJaccardMatcher(p.Dataset.Collection, 0.5)
	rng := rand.New(rand.NewSource(1))
	n := p.Dataset.Collection.Size()
	pairs := make([]entity.Pair, samples)
	for i := range pairs {
		a := entity.ID(rng.Intn(n))
		b := entity.ID(rng.Intn(n))
		if a == b {
			b = entity.ID((int(b) + 1) % n)
		}
		pairs[i] = entity.MakePair(a, b)
	}
	start := time.Now()
	var sink float64
	for _, pr := range pairs {
		sink += m.Similarity(pr.A, pr.B)
	}
	_ = sink
	p.matchCost = time.Since(start) / samples
}

// ResolutionTime extrapolates RTime for executing the given number of
// comparisons on top of the overhead.
func (p *Prepared) ResolutionTime(comparisons int64, overhead time.Duration) time.Duration {
	return overhead + time.Duration(comparisons)*p.matchCost
}

// EvaluateBlockCollection measures a block collection of this dataset.
func (p *Prepared) EvaluateBlockCollection(c *block.Collection, baseline int64) eval.Report {
	r := eval.EvaluateBlocks(c, p.Dataset.GroundTruth, baseline)
	return r
}

// printf writes to the suite's output.
func (s *Suite) printf(format string, args ...any) {
	fmt.Fprintf(s.Out, format, args...)
}

// RunAll executes every experiment in the paper's order.
func (s *Suite) RunAll() {
	s.Table2()
	s.Table1()
	s.Figure10()
	s.Table3()
	s.Table5()
	s.Table4()
	s.Table6()
}

// --- formatting helpers ---

// sci renders a count in compact scientific-ish notation like the paper
// (e.g. 1.92e6).
func sci(v int64) string {
	f := float64(v)
	switch {
	case v == 0:
		return "0"
	case f < 1e4:
		return fmt.Sprintf("%d", v)
	default:
		return fmt.Sprintf("%.2e", f)
	}
}

// dur renders a duration rounded for table display.
func dur(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.1fh", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
