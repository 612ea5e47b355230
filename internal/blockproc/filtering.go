package blockproc

import (
	"metablocking/internal/arena"
	"metablocking/internal/block"
	"metablocking/internal/entity"
	"metablocking/internal/obs"
	"metablocking/internal/par"
)

// BlockFiltering removes every profile from the least important of its
// blocks (paper §4.1, Algorithm 1). Block importance is the inverse of
// block cardinality: the fewer comparisons a block contains, the more
// important it is for its members. Each profile is retained only in the
// first ⌈r·|Bi|⌉ of its blocks after sorting all blocks from the smallest
// to the largest cardinality.
//
// The zero value is not useful; set Ratio explicitly (the paper fine-tunes
// r = 0.80 for pre-processing, §6.2).
type BlockFiltering struct {
	// Ratio is the filtering ratio r in (0, 1]: the portion of each
	// profile's blocks (the smallest ones) in which it is retained.
	Ratio float64
	// GlobalThreshold, when positive, replaces the per-profile limit with
	// one global maximum number of block assignments for all profiles.
	// The paper reports this variant performs poorly (§4.1); it is kept
	// for the ablation benchmarks.
	GlobalThreshold int
	// Workers parallelizes the clone, the cardinality sort, the per-entity
	// count pass and the limit pass: 0 or 1 = one worker, negative uses
	// GOMAXPROCS. The retain pass is inherently sequential (each removal
	// depends on all prior blocks) and stays serial; output is identical for
	// any worker count.
	Workers int
	// Obs is the optional observability handle: it receives the filter
	// stage's progress over the sorted blocks and the workers.filter gauge,
	// and is polled for cancellation between passes and once per stride of
	// the retain loop. When Obs's context is canceled Apply returns a
	// partial collection the caller must discard after checking Obs.Err.
	Obs *obs.Observer
}

// Apply restructures the collection per Algorithm 1 and returns the result.
// The input is not modified. The output blocks are ordered by ascending
// cardinality (the processing order of the algorithm), which downstream
// methods such as Iterative Blocking also assume.
func (f BlockFiltering) Apply(c *block.Collection) *block.Collection {
	o := f.Obs
	workers := par.Resolve(f.Workers, len(c.Blocks))
	o.Gauge(obs.GaugeWorkersFilter).Set(int64(workers))
	out := &block.Collection{Task: c.Task, NumEntities: c.NumEntities, Split: c.Split}
	sorted := c.CloneWorkers(workers)
	sorted.SortByCardinalityWorkers(workers) // orderBlocks: descending importance
	if o.Canceled() {
		return out
	}

	// getThresholds: the per-profile limit ⌈r·|Bi|⌉ (at least 1 so no
	// profile disappears from all blocks).
	counts := assignmentCounts(sorted, workers)
	if o.Canceled() {
		return out
	}
	limits := make([]int32, c.NumEntities)
	par.Ranges(par.Resolve(workers, len(limits)), len(limits), func(_, lo, hi int) {
		for id := lo; id < hi; id++ {
			if f.GlobalThreshold > 0 {
				limits[id] = int32(f.GlobalThreshold)
				continue
			}
			limit := int32(f.Ratio*float64(counts[id]) + 0.5)
			if limit < 1 {
				limit = 1
			}
			limits[id] = limit
		}
	})

	meter := o.NewMeter(obs.StageFilter, int64(len(sorted.Blocks)))
	counters := make([]int32, c.NumEntities)
	// All retained member lists are carved from one slab arena: they share
	// the output collection's lifetime, so the retain loop does a handful
	// of slab allocations instead of two per block.
	var members arena.Arena[entity.ID]
	for i := range sorted.Blocks {
		if i&obs.StrideMask == obs.StrideMask {
			meter.Add(obs.Stride)
			if o.Canceled() {
				return out
			}
		}
		b := &sorted.Blocks[i]
		e1 := filterMembers(b.E1, counters, limits, &members)
		var e2 []entity.ID
		if b.E2 != nil {
			e2 = filterMembers(b.E2, counters, limits, &members)
		}
		if !retainBlock(c.Task, e1, e2) {
			continue
		}
		nb := block.Block{Key: b.Key, E1: e1}
		if b.E2 != nil {
			nb.E2 = e2
		}
		out.Blocks = append(out.Blocks, nb)
	}
	meter.Add(int64(len(sorted.Blocks)) & obs.StrideMask)
	return out
}

// assignmentCounts returns |Bi| per entity: each worker counts a disjoint
// block range into a private array and the per-worker arrays are summed over
// disjoint entity ranges (integer addition commutes, so the result is exact
// regardless of partitioning).
func assignmentCounts(c *block.Collection, workers int) []int32 {
	counts := make([]int32, c.NumEntities)
	partial := make([][]int32, workers)
	par.Ranges(workers, len(c.Blocks), func(w, lo, hi int) {
		p := make([]int32, c.NumEntities)
		for i := lo; i < hi; i++ {
			b := &c.Blocks[i]
			for _, id := range b.E1 {
				p[id]++
			}
			for _, id := range b.E2 {
				p[id]++
			}
		}
		partial[w] = p
	})
	par.Ranges(par.Resolve(workers, c.NumEntities), c.NumEntities, func(_, lo, hi int) {
		for _, p := range partial {
			if p == nil {
				continue
			}
			for id := lo; id < hi; id++ {
				counts[id] += p[id]
			}
		}
	})
	return counts
}

// filterMembers keeps the members still under their assignment limit,
// writing the result into a slice carved from the members arena (capacity
// len(ids), so the appends never reallocate).
func filterMembers(ids []entity.ID, counters, limits []int32, members *arena.Arena[entity.ID]) []entity.ID {
	if len(ids) == 0 {
		return nil
	}
	kept := members.Alloc(len(ids))[:0]
	for _, id := range ids {
		if counters[id] >= limits[id] {
			continue // remove profile from this (less important) block
		}
		counters[id]++
		kept = append(kept, id)
	}
	if len(kept) == 0 {
		return nil
	}
	return kept
}
