package blockproc

import (
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
// j the first time it meets it. The distinct set is the same; ApplyLeCoBI
// and ApplyDirect stay as references.
type ComparisonPropagation struct {
	// Workers splits the node range of both passes: 0 or 1 is serial,
	// negative uses GOMAXPROCS. The output is identical, element for
	// element, for every worker count.
	Workers int
	// Obs is the optional observability handle: it receives the prune
	// stage's progress (one tick per node per pass) and the workers.prune
	// gauge, and is polled for cancellation once per stride of nodes. When
	// Obs's context is canceled Apply returns nil; check Obs.Err.
	Obs *obs.Observer
}

// Apply returns the distinct comparisons of the collection: A ascending,
// and for one A, B in the order node A first meets it walking its blocks
// in processing order. Every pair is canonical (A < B).
//
// It is a count pass, a prefix sum and a fill pass over the same node
// ranges, so the result is allocated once at its exact size.
func (p ComparisonPropagation) Apply(c *block.Collection) []entity.Pair {
	o := p.Obs
	nodes := emittingNodes(c)
	workers := par.Resolve(p.Workers, nodes)
	o.Gauge(obs.GaugeWorkersPrune).Set(int64(workers))
	idx := block.NewEntityIndexObserved(c, p.Workers, o)
	if o.Canceled() {
		return nil
	}
	meter := o.NewMeter(obs.StagePrune, 2*int64(nodes))

	// offsets[i+1] holds node i's distinct-neighbour count until the
	// prefix sum turns it into the end of node i's segment of the result.
	offsets := make([]int64, nodes+1)
	stamps := make([][]int32, workers)
	par.Ranges(workers, nodes, func(w, lo, hi int) {
		stamps[w] = make([]int32, c.NumEntities)
		scanNodes(c, idx, lo, hi, stamps[w], offsets, nil, o, meter)
	})
	if o.Canceled() {
		return nil
	}
	for i := 0; i < nodes; i++ {
		offsets[i+1] += offsets[i]
	}
	out := make([]entity.Pair, offsets[nodes])
	par.Ranges(workers, nodes, func(w, lo, hi int) {
		scanNodes(c, idx, lo, hi, stamps[w], offsets, out, o, meter)
	})
	if o.Canceled() {
		return nil
	}
	return out
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
// With out == nil it counts the new members into offsets[i+1]; otherwise
// it writes them as pairs from out[offsets[i]] on. The two passes use
// different epochs (i+1 and ^i, neither ever 0) so they can share one
// zero-initialised stamp array.
func scanNodes(c *block.Collection, idx *block.EntityIndex, lo, hi int, stamp []int32,
	offsets []int64, out []entity.Pair, o *obs.Observer, meter *obs.Meter) {
	for n := lo; n < hi; n++ {
		if (n-lo)&obs.StrideMask == obs.StrideMask {
			meter.Add(obs.Stride)
			if o.Canceled() {
				return
			}
		}
		i := entity.ID(n)
		// offsets[n] is the previous range's last count until the prefix
		// sum: only the fill pass may read it.
		epoch, pos := i+1, int64(0)
		if out != nil {
			epoch, pos = ^i, offsets[n]
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
				if out != nil {
					out[pos] = entity.Pair{A: i, B: j}
					pos++
				}
				count++
			}
		}
		if out == nil {
			offsets[n+1] = count
		}
	}
	meter.Add(int64(hi-lo) & obs.StrideMask)
}

// ApplyLeCoBI is ref [21]'s Comparison Propagation as the paper describes
// it (§2): blocks are enumerated in their processing order, the Entity
// Index is built, and a comparison inside block b is executed only if b's
// ID is the least common block ID of the two profiles (the LeCoBI
// condition). It returns the distinct comparisons in block processing
// order and is kept as a test oracle and ablation row for Apply.
func (ComparisonPropagation) ApplyLeCoBI(c *block.Collection) []entity.Pair {
	idx := block.NewEntityIndex(c)
	var out []entity.Pair
	c.ForEachComparison(func(blockID int, a, b entity.ID) bool {
		if idx.IsNonRedundant(int32(blockID), a, b) {
			out = append(out, entity.MakePair(a, b))
		}
		return true
	})
	return out
}

// ApplyDirect removes redundant comparisons with a central hash of executed
// comparisons — the small-scale strategy the paper mentions (§2). It is the
// second test oracle for Apply.
func (ComparisonPropagation) ApplyDirect(c *block.Collection) []entity.Pair {
	seen := make(map[entity.Pair]struct{})
	var out []entity.Pair
	c.ForEachComparison(func(_ int, a, b entity.ID) bool {
		p := entity.MakePair(a, b)
		if _, ok := seen[p]; !ok {
			seen[p] = struct{}{}
			out = append(out, p)
		}
		return true
	})
	return out
}

// DistinctComparisons returns the number of non-redundant comparisons in
// the collection without materializing them: the count pass of
// ComparisonPropagation.Apply.
func DistinctComparisons(c *block.Collection) int64 {
	nodes := emittingNodes(c)
	counts := make([]int64, nodes+1)
	scanNodes(c, block.NewEntityIndex(c), 0, nodes, make([]int32, c.NumEntities), counts, nil, nil, nil)
	var total int64
	for _, n := range counts {
		total += n
	}
	return total
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
