package blockproc

import (
	"metablocking/internal/arena"
	"metablocking/internal/block"
	"metablocking/internal/entity"
	"metablocking/internal/obs"
	"metablocking/internal/par"
)

// ComparisonPropagation discards all redundant comparisons from a block
// collection without any impact on recall (paper §2, ref [21]).
//
// Apply does not use ref [21]'s mechanism. The LeCoBI condition intersects
// two block lists per comparison — O(2·BPE·‖B‖), the cost the paper's own
// §4.2 replaces with a ScanCount per node (Alg. 3) — so Apply runs that
// ScanCount instead: node i walks its blocks and keeps each co-occurring
// j the first time it meets it. The distinct set is the same; ref [21]'s
// form and the direct hash-set form stay as test references in
// internal/oracle.
type ComparisonPropagation struct {
	// Workers splits the node range: 0 or 1 is serial, negative uses
	// GOMAXPROCS. The output is identical, element for element, for every
	// worker count.
	Workers int
	// Obs is the optional observability handle: it receives the prune
	// stage's progress (one tick per node per pass) and the workers.prune
	// gauge, and is polled for cancellation once per stride of nodes. When
	// Obs's context is canceled Apply returns nil and Emit Obs.Err().
	Obs *obs.Observer
}

// Apply returns the distinct comparisons of the collection: A ascending,
// and for one A, B in the order node A first meets it walking its blocks
// in processing order. Every pair is canonical (A < B).
//
// It is a count pass, a prefix sum and Emit's fill pass, which scans each
// chunk straight into its segment of the result, so the result is
// allocated once at its exact size.
func (p ComparisonPropagation) Apply(c *block.Collection) []entity.Pair {
	o := p.Obs
	nodes, workers, idx := p.prepare(c)
	if o.Canceled() {
		return nil
	}
	meter := o.NewMeter(obs.StagePrune, 2*int64(nodes))

	// offsets[i+1] holds node i's distinct-neighbour count until the
	// prefix sum turns it into the end of node i's segment of the result.
	offsets := make([]int64, nodes+1)
	stamps := make(chan []int32, workers)
	par.Ranges(workers, nodes, func(_, lo, hi int) {
		stamp := make([]int32, c.NumEntities)
		scanNodes(c, idx, lo, hi, stamp, offsets, nil, o, meter)
		stamps <- stamp
	})
	if o.Canceled() {
		return nil
	}
	for i := 0; i < nodes; i++ {
		offsets[i+1] += offsets[i]
	}
	out := make([]entity.Pair, offsets[nodes])
	err := fill(c, idx, workers, stamps, o, meter, func(lo, hi int) []entity.Pair {
		return out[offsets[lo]:offsets[lo]:offsets[hi]]
	}, nil)
	if pe, ok := err.(*par.PanicError); ok {
		panic(pe)
	}
	if o.Canceled() {
		return nil
	}
	return out
}

// Emit hands the distinct comparisons of the collection to sink in chunks,
// in Apply's order. Chunk k holds every pair of a range of emitting nodes,
// so a chunk never splits one A's pairs. It is one pass with no count: a
// worker scans a chunk into a recycled buffer and, unless it is empty, calls
// sink with it; the commits sink returns run on the caller's goroutine in
// chunk order (par.Ordered). A chunk stays valid until its commit returns,
// or until sink returns when the commit is nil.
//
// Emit returns the first commit error, a worker panic as *par.PanicError,
// or Obs.Err() when the run was canceled; a chunk cut short by the
// cancellation is never handed to sink.
func (p ComparisonPropagation) Emit(c *block.Collection, sink func(chunk []entity.Pair) (commit func() error)) error {
	o := p.Obs
	nodes, workers, idx := p.prepare(c)
	if o.Canceled() {
		return o.Err()
	}
	meter := o.NewMeter(obs.StagePrune, int64(nodes))
	return fill(c, idx, workers, make(chan []int32, workers), o, meter, nil, sink)
}

// prepare resolves the workers, sets their gauge and builds the Entity Index
// the passes scan.
func (p ComparisonPropagation) prepare(c *block.Collection) (nodes, workers int, idx *block.EntityIndex) {
	nodes = emittingNodes(c)
	workers = par.Resolve(p.Workers, nodes)
	p.Obs.Gauge(obs.GaugeWorkersPrune).Set(int64(workers))
	return nodes, workers, block.NewEntityIndexObserved(c, p.Workers, p.Obs)
}

// chunksPerWorker is how many node chunks fill cuts per worker: enough that
// par.Ordered's window of two chunks per worker keeps every worker busy
// across the ID space's uneven costs, and that one chunk's pairs are a small
// slice of the answer.
const chunksPerWorker = 32

// chunkPairs recycles Emit's chunk buffers across chunks and calls.
var chunkPairs arena.Pool[entity.Pair]

// fill is the one fill pass of Apply and Emit. It cuts the emitting nodes
// into even chunks, and par.Ordered scans chunk [lo, hi) on a worker into
// dst(lo, hi), or into a pooled buffer when dst is nil, and hands the
// result to sink, if any, unless it is empty. stamps holds the stamp arrays
// of earlier passes; at most workers chunks are scanned at once, so a
// worker that finds none allocates its own and the channel never holds
// more than workers.
func fill(c *block.Collection, idx *block.EntityIndex, workers int, stamps chan []int32,
	o *obs.Observer, meter *obs.Meter, dst func(lo, hi int) []entity.Pair,
	sink func([]entity.Pair) func() error) error {
	nodes := emittingNodes(c)
	parts := min(max(nodes, 1), workers*chunksPerWorker)
	return par.Ordered(workers, parts, func(k int) func() error {
		lo, hi := k*nodes/parts, (k+1)*nodes/parts
		var stamp []int32
		select {
		case stamp = <-stamps:
		default:
			stamp = make([]int32, c.NumEntities)
		}
		if dst != nil {
			scanNodes(c, idx, lo, hi, stamp, nil, dst(lo, hi), o, meter)
			stamps <- stamp
			return nil
		}
		buf := chunkPairs.Get()
		buf.S = scanNodes(c, idx, lo, hi, stamp, nil, buf.S, o, meter)
		stamps <- stamp
		if o.Canceled() {
			return o.Err
		}
		var commit func() error
		if len(buf.S) > 0 {
			commit = sink(buf.S)
		}
		return chunkPairs.PutAfter(buf, commit)
	})
}

// emittingNodes returns the exclusive upper bound of the IDs that emit
// pairs: every pair is emitted by its smaller endpoint, which for
// Clean-Clean ER is always on the E1 side of the split.
func emittingNodes(c *block.Collection) int {
	if c.Task == entity.CleanClean {
		return c.Split
	}
	return c.NumEntities
}

// scanNodes is the ScanCount of nodes [lo, hi): node i visits the members
// of its blocks — E2 for a bilateral block, the larger IDs of E1 otherwise
// — and a member j is new when stamp[j] does not already carry i's epoch.
// With counts != nil it counts the new members into counts[i+1]; otherwise
// it appends them to out as pairs, and it returns out. The two passes use
// different epochs (i+1 and ^i, neither ever 0) so they can share one
// zero-initialised stamp array.
func scanNodes(c *block.Collection, idx *block.EntityIndex, lo, hi int, stamp []int32,
	counts []int64, out []entity.Pair, o *obs.Observer, meter *obs.Meter) []entity.Pair {
	for n := lo; n < hi; n++ {
		if (n-lo)&obs.StrideMask == obs.StrideMask {
			meter.Add(obs.Stride)
			if o.Canceled() {
				return out
			}
		}
		i := entity.ID(n)
		epoch := ^i
		if counts != nil {
			epoch = i + 1
		}
		inFirst := c.InFirst(i)
		var count int64
		for _, k := range idx.BlockList(i) {
			blk := &c.Blocks[k]
			members := blk.E1
			if blk.E2 != nil {
				if !inFirst {
					continue
				}
				members = blk.E2
			}
			for _, j := range members {
				if j <= i || stamp[j] == epoch {
					continue
				}
				stamp[j] = epoch
				if counts == nil {
					out = append(out, entity.Pair{A: i, B: j})
				}
				count++
			}
		}
		if counts != nil {
			counts[n+1] = count
		}
	}
	meter.Add(int64(hi-lo) & obs.StrideMask)
	return out
}

// GraphFreeMetaBlocking is the blocking-graph-free workflow of Figure 7(b):
// Block Filtering (with an aggressive ratio) followed by Comparison
// Propagation. It operates on the level of individual profiles instead of
// profile pairs, trading precision for a minimal overhead time (§6.4).
//
// The paper's tuned ratios are 0.25 for efficiency-intensive applications
// and 0.55 for effectiveness-intensive ones.
type GraphFreeMetaBlocking struct {
	// Ratio is the Block Filtering ratio r.
	Ratio float64
}

// Apply returns the restructured comparisons, serially. Pipeline composes
// the two stages itself to hand them its Workers and observer.
func (g GraphFreeMetaBlocking) Apply(c *block.Collection) []entity.Pair {
	return ComparisonPropagation{}.Apply(BlockFiltering{Ratio: g.Ratio}.Apply(c))
}
