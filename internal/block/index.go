package block

import (
	"metablocking/internal/entity"
	"metablocking/internal/obs"
	"metablocking/internal/par"
	"metablocking/internal/postings"
)

// EntityIndex is the inverted index from entity IDs to the ascending list
// of block IDs that contain them (paper §2). It underlies Comparison
// Propagation (via the LeCoBI condition) and both edge-weighting
// implementations of meta-blocking.
//
// Every per-entity list is a view into one flat backing array, so building
// the index costs a constant number of allocations regardless of |E|, and
// readers get zero-copy views through BlockList.
type EntityIndex struct {
	lists       [][]int32
	flat        []int32
	numEntities int
}

// NewEntityIndex builds the index for the collection's current block order
// on a single core. Block IDs are positional: block i of c.Blocks has ID i.
// Because blocks are visited in ascending ID order, every block list comes
// out ascending.
func NewEntityIndex(c *Collection) *EntityIndex {
	return NewEntityIndexParallel(c, 1)
}

// NewEntityIndexParallel builds the same index with the given number of
// workers (0 or 1 = one, negative = GOMAXPROCS). The build runs a
// parallel count pass (per-worker assignment counts over disjoint block
// ranges) and a parallel fill pass: each worker writes its blocks' members
// at precomputed per-worker cursors of the flat backing array, so the
// result is bit-identical for every worker count — including the ascending
// order within every entity's list — without any locking.
func NewEntityIndexParallel(c *Collection, workers int) *EntityIndex {
	return NewEntityIndexObserved(c, workers, nil)
}

// NewEntityIndexObserved is NewEntityIndexParallel with an observability
// handle: the count and fill loops poll o for cancellation once per
// stride of blocks and the build aborts between passes once o's context
// is canceled, returning a partially built index the caller must discard
// after checking o. A nil o disables the polls.
func NewEntityIndexObserved(c *Collection, workers int, o *obs.Observer) *EntityIndex {
	n := c.NumEntities
	idx := &EntityIndex{lists: make([][]int32, n), numEntities: n}
	numBlocks := len(c.Blocks)
	workers = par.Resolve(workers, numBlocks)

	// Worker w walks its block range twice, through counts[w*n:(w+1)*n]:
	// while flat is nil it counts its assignments per entity, then it writes
	// them at the cursors the prefix sum turned those counts into.
	counts := make([]int32, workers*n)
	walk := func(w, lo, hi int) {
		own := counts[w*n : (w+1)*n]
		for i := lo; i < hi; i++ {
			if (i-lo)&obs.StrideMask == obs.StrideMask && o.Canceled() {
				return
			}
			b := &c.Blocks[i]
			for _, members := range [2][]entity.ID{b.E1, b.E2} {
				if idx.flat == nil {
					for _, id := range members {
						own[id]++
					}
					continue
				}
				for _, id := range members {
					idx.flat[own[id]] = int32(i)
					own[id]++
				}
			}
		}
	}
	par.Ranges(workers, numBlocks, walk)
	if o.Canceled() {
		return idx
	}

	// One serial prefix sum places every entity's segment in the flat array
	// and turns each worker's count into its cursor there: the segment's
	// start plus the counts of all lower-ranked workers. Lower-ranked workers
	// own lower block IDs, so every list comes out in ascending block ID
	// order.
	flat := make([]int32, c.Assignments())
	cursor := int32(0)
	for id := range n {
		start := cursor
		for k := id; k < len(counts); k += n {
			counts[k], cursor = cursor, cursor+counts[k]
		}
		if cursor > start {
			idx.lists[id] = flat[start:cursor:cursor]
		}
	}
	idx.flat = flat
	par.Ranges(workers, numBlocks, walk)
	return idx
}

// NumEntities returns the size of the ID space the index covers.
func (x *EntityIndex) NumEntities() int { return x.numEntities }

// BlockList returns the ascending block IDs containing the given entity.
// The returned slice is shared; callers must not modify it.
func (x *EntityIndex) BlockList(id entity.ID) []int32 { return x.lists[id] }

// NumBlocks returns |Bi|, the number of blocks containing the entity.
func (x *EntityIndex) NumBlocks(id entity.ID) int { return len(x.lists[id]) }

// LeastCommonBlock returns the smallest block ID shared by the two
// entities, or -1 if they share none.
func (x *EntityIndex) LeastCommonBlock(a, b entity.ID) int32 {
	return postings.First(x.BlockList(a), x.BlockList(b))
}

// IsNonRedundant implements the Least Common Block Index (LeCoBI)
// condition: a comparison (a, b) inside block blockID is non-redundant iff
// blockID equals the least common block ID of the two entities.
func (x *EntityIndex) IsNonRedundant(blockID int32, a, b entity.ID) bool {
	return x.LeastCommonBlock(a, b) == blockID
}
