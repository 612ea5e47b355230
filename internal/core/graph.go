package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"metablocking/internal/block"
	"metablocking/internal/entity"
	"metablocking/internal/floatsum"
	"metablocking/internal/obs"
	"metablocking/internal/par"
)

// Graph is the implicit blocking graph GB of a block collection (paper §3).
// It is never materialized: nodes are the profiles appearing in blocks and
// edges are the non-redundant comparisons, traversed on demand through the
// Entity Index. A Graph is bound to one weighting scheme.
//
// A Graph holds reusable scratch arrays and is therefore NOT safe for
// concurrent use; create one Graph per goroutine.
type Graph struct {
	// OriginalWeighting switches every traversal from Optimized Edge
	// Weighting (Alg. 3, the default) to the Original one (Alg. 2), for
	// the pruning schemes' timings of Table 3. Pruning then runs on one
	// worker.
	OriginalWeighting bool

	blocks   *block.Collection
	index    *block.EntityIndex
	scheme   Scheme
	numNodes int // |VB|

	// invCard caches 1/‖b‖ per block for ARCS.
	invCard []float64
	// degrees caches |vi| (distinct neighbors per node) for EJS.
	degrees []int32
	// numBlocks holds float64(|Bj|) per entity and, for ECBS and EJS,
	// factor holds the per-endpoint factor of the weight: ln(|B|/|Bj|) or
	// ln(|VB|/dj). fillWeights reads a neighbor's operands from these dense
	// tables, 8 bytes each, instead of a 24-byte block-list header and two
	// logarithms per edge.
	numBlocks []float64
	factor    []float64
	// cost holds the scan-cost prefix sums the parallel passes balance
	// their ID ranges with; nil until costPrefix first builds it.
	cost []int64

	// sc is this graph's private traversal scratch; shards get their own.
	sc *scanScratch
	// scratchPool recycles shard scratch across parallel passes — a
	// multi-pass algorithm (WEP, the phases and bands of the node-centric
	// pass) reuses the same per-worker cell arrays instead of reallocating
	// |E| cells every pass.
	scratchPool *sync.Pool

	// obs carries the run's observability handle (cancellation polls and
	// the edges-weighted counter); meter is the current stage's progress
	// meter. Both are nil on un-observed graphs and shared across shards.
	obs   *obs.Observer
	meter *obs.Meter
}

// scanCell is one entity's ScanCount accumulator slot: the epoch of the
// last scan that touched it and the accumulated co-occurrence statistic.
// Interleaving the two (instead of parallel []int64/[]float64 arrays) makes
// each random access in the hot accumulate loop touch one cache line, not
// two.
type scanCell struct {
	epoch  int64
	common float64
}

// scanScratch is the reusable per-traversal state of one Graph (or one
// shard). Cells are epoch-stamped, so clearing between scans is O(1): a
// cell is valid only when its epoch matches the scratch's current epoch.
// The epoch counter travels with the scratch through the pool, keeping
// stamps monotonic across reuse.
type scanScratch struct {
	cells     []scanCell
	epoch     int64
	neighbors []entity.ID
	weights   []float64
	meanAcc   floatsum.Acc
	// fallbacks counts the neighborhoods of the current range whose
	// threshold needed the exact mean (thresholdOf); scanNodeRange flushes
	// it to the prune.exact_mean_fallbacks counter.
	fallbacks int64
	// keys holds one node's retained slots while the parallel node-centric
	// pass sorts them.
	keys []uint64
}

// obsTick batches progress ticks and cancellation polls for the hot
// traversal loops: step is called once per outer-loop iteration, ticks the
// meter every obs.Stride iterations and reports whether the traversal
// should abort. flush reports the iterations since the last full stride.
type obsTick struct {
	o *obs.Observer
	m *obs.Meter
	n int64
}

func (t *obsTick) step() bool {
	t.n++
	if t.n&obs.StrideMask != 0 {
		return false
	}
	t.m.Add(obs.Stride)
	return t.o.Canceled()
}

func (t *obsTick) flush() { t.m.Add(t.n & obs.StrideMask) }

// NewGraph builds the implicit blocking graph for the given (redundancy-
// positive) block collection and weighting scheme on a single core.
// Construction builds the Entity Index and, for EJS, one extra pass to
// compute node degrees.
func NewGraph(c *block.Collection, scheme Scheme) *Graph {
	return NewGraphWorkers(c, scheme, 1)
}

// NewGraphWorkers builds the same graph with the given number of workers
// (0 or 1 = one, negative = GOMAXPROCS): the Entity Index count and fill
// passes and the EJS degree pass are sharded across the workers. The
// resulting graph is bit-identical for every worker count.
func NewGraphWorkers(c *block.Collection, scheme Scheme, workers int) *Graph {
	return NewGraphObserved(c, scheme, workers, nil)
}

// NewGraphObserved is NewGraphWorkers with an observability handle: the
// resolved worker count is reported to the workers.graph gauge, the EJS
// degree pass reports graph-stage progress, and construction aborts
// between (and, for the sharded passes, inside) its passes once o's
// context is canceled — callers must check o.Err before using the graph.
func NewGraphObserved(c *block.Collection, scheme Scheme, workers int, o *obs.Observer) *Graph {
	workers = par.Resolve(workers, c.NumEntities)
	o.Gauge(obs.GaugeWorkersGraph).Set(int64(workers))
	g := &Graph{
		blocks:      c,
		index:       block.NewEntityIndexObserved(c, workers, o),
		scheme:      scheme,
		obs:         o,
		sc:          &scanScratch{cells: make([]scanCell, c.NumEntities)},
		scratchPool: &sync.Pool{},
	}
	if o.Canceled() {
		return g
	}
	if scheme.usesReciprocalCardinality() {
		g.invCard = make([]float64, len(c.Blocks))
		for i := range c.Blocks {
			if n := c.Blocks[i].Comparisons(); n > 0 {
				g.invCard[i] = 1 / float64(n)
			}
		}
	}
	g.numBlocks = make([]float64, c.NumEntities)
	for id := range g.numBlocks {
		if b := g.index.NumBlocks(entity.ID(id)); b > 0 {
			g.numBlocks[id] = float64(b)
			g.numNodes++
		}
	}
	switch {
	case scheme == ECBS:
		numBlocks := float64(len(c.Blocks)) // |B|
		g.factor = make([]float64, c.NumEntities)
		for id, b := range g.numBlocks {
			if b > 0 {
				g.factor[id] = math.Log(numBlocks / b)
			}
		}
	case scheme.NeedsDegrees() && !o.Canceled():
		g.meter = o.NewMeter(obs.StageGraph, int64(c.NumEntities))
		g.computeDegrees(workers)
		g.meter = nil
		g.factor = make([]float64, c.NumEntities)
		for id, d := range g.degrees {
			if d > 0 {
				g.factor[id] = math.Log(float64(g.numNodes) / float64(d))
			}
		}
	}
	return g
}

// Blocks returns the underlying block collection.
func (g *Graph) Blocks() *block.Collection { return g.blocks }

// Index returns the underlying Entity Index.
func (g *Graph) Index() *block.EntityIndex { return g.index }

// Scheme returns the weighting scheme the graph was built with.
func (g *Graph) Scheme() Scheme { return g.scheme }

// NumNodes returns |VB|, the graph order (profiles placed in ≥1 block).
func (g *Graph) NumNodes() int { return g.numNodes }

// NumEdges returns |EB|, the graph size (distinct comparisons). It requires
// a full traversal and is intended for reporting, not hot paths.
func (g *Graph) NumEdges() int64 {
	var n int64
	g.ForEachNode(func(_ entity.ID, neighbors []entity.ID, _ []float64) {
		n += int64(len(neighbors))
	})
	return n / 2 // every edge is seen from both endpoints
}

// scanNeighborhood runs the core of Algorithm 3 (lines 6-12) for node i:
// it enumerates the distinct co-occurring profiles and accumulates, per
// neighbor, the number of shared blocks (or Σ 1/‖b‖ for ARCS). The
// returned slices are scratch, valid until the next scan.
func (g *Graph) scanNeighborhood(i entity.ID) []entity.ID {
	sc := g.sc
	sc.neighbors = sc.neighbors[:0]
	sc.epoch++
	clean := g.blocks.Task == entity.CleanClean
	iFirst := g.blocks.InFirst(i)
	for _, bid := range g.index.BlockList(i) {
		b := &g.blocks.Blocks[bid]
		inc := 1.0
		if g.invCard != nil {
			inc = g.invCard[bid]
		}
		if clean {
			// Edges only cross the two source collections.
			if iFirst {
				g.accumulate(i, b.E2, inc, false)
			} else {
				g.accumulate(i, b.E1, inc, false)
			}
		} else {
			g.accumulate(i, b.E1, inc, true)
		}
	}
	return sc.neighbors
}

// accumulate records co-occurrences of i with the given profiles. When
// skipSelf is set, the profile i itself is skipped (Dirty ER blocks list
// every member on one side).
func (g *Graph) accumulate(i entity.ID, others []entity.ID, inc float64, skipSelf bool) {
	sc := g.sc
	epoch := sc.epoch
	cells := sc.cells
	for _, j := range others {
		if skipSelf && j == i {
			continue
		}
		c := &cells[j]
		if c.epoch != epoch {
			c.epoch = epoch
			c.common = inc
			sc.neighbors = append(sc.neighbors, j)
		} else {
			c.common += inc
		}
	}
}

// computeDegrees fills g.degrees with |vi| — the number of distinct
// neighbors of every node — via ScanCount passes sharded over disjoint
// node ranges (each worker owns a private scratch shard, and the ranges
// write disjoint g.degrees indices).
func (g *Graph) computeDegrees(workers int) {
	g.degrees = make([]int32, g.blocks.NumEntities)
	g.parallelRangesIn(0, g.blocks.NumEntities, workers, func(w *Graph, _, lo, hi int) {
		tick := obsTick{o: w.obs, m: w.meter}
		for id := lo; id < hi; id++ {
			if tick.step() {
				break
			}
			i := entity.ID(id)
			if w.index.NumBlocks(i) == 0 {
				continue
			}
			g.degrees[i] = int32(len(w.scanNeighborhood(i)))
		}
		tick.flush()
	})
}

// fillWeights weighs the edges from i to the given neighbors (Fig. 4) into
// the scratch weights buffer, from the statistic in each neighbor's
// ScanCount cell — Alg. 3's scan or Alg. 2's intersection put it there: one
// switch on the scheme per node, then a tight loop over the neighbors that
// reads their operands from the dense per-node tables. It is the package's
// only weight evaluation, and an edge weighs the same bits from either
// endpoint: JS's denominator is an exact integer sum in either order, and
// ECBS and EJS multiply by the factor of the endpoint smaller by (|B|,
// degree) first.
func (g *Graph) fillWeights(i entity.ID, neighbors []entity.ID) []float64 {
	sc := g.sc
	w := slices.Grow(sc.weights[:0], len(neighbors))
	w = w[:len(neighbors)]
	cells, nb, f := sc.cells, g.numBlocks, g.factor
	switch g.scheme {
	case ARCS, CBS:
		for n, j := range neighbors {
			w[n] = cells[j].common
		}
	case ECBS:
		bi, fi := nb[i], f[i]
		for n, j := range neighbors {
			if c := cells[j].common; nb[j] < bi {
				w[n] = c * f[j] * fi
			} else {
				w[n] = c * fi * f[j]
			}
		}
	case JS:
		bi := nb[i]
		for n, j := range neighbors {
			c := cells[j].common
			w[n] = c / (bi + nb[j] - c)
		}
	case EJS:
		bi, di, fi, d := nb[i], g.degrees[i], f[i], g.degrees
		for n, j := range neighbors {
			c, bj := cells[j].common, nb[j]
			if js := c / (bi + bj - c); bj < bi || (bj == bi && d[j] < di) {
				w[n] = js * f[j] * fi
			} else {
				w[n] = js * fi * f[j]
			}
		}
	default:
		panic(fmt.Sprintf("core: unknown weighting scheme %d", int(g.scheme)))
	}
	sc.weights = w
	return w
}

// ForEachNode invokes fn once per node that has at least one incident
// edge, passing the distinct neighbors and their edge weights (Optimized
// Edge Weighting, Alg. 3). The slices passed to fn are scratch buffers,
// only valid for the duration of the call.
func (g *Graph) ForEachNode(fn func(i entity.ID, neighbors []entity.ID, weights []float64)) {
	g.forEachNodeRange(0, g.blocks.NumEntities, fn)
}

// ForEachEdge invokes fn once per edge of the blocking graph with its
// weight, using the optimized per-node scan and emitting each pair from its
// smaller endpoint only. On a graph with OriginalWeighting it runs Alg. 2's
// comparison loop instead (ForEachEdgeOriginal).
func (g *Graph) ForEachEdge(fn func(i, j entity.ID, w float64)) {
	g.forEachEdgeRange(0, g.blocks.NumEntities, fn)
}
