package core

import (
	"metablocking/internal/entity"
	"metablocking/internal/obs"
	"metablocking/internal/postings"
)

// ForEachEdgeOriginal invokes fn once per edge with its weight using the
// Original Edge Weighting of Algorithm 2: it iterates over every
// comparison of every block, intersects the two sorted block lists, aborts
// early on redundant comparisons (the first common block ID violating the
// LeCoBI condition), and otherwise weighs the full intersection with a
// one-neighbor fillWeights call. Its average cost is O(2·BPE·‖B‖), which
// the optimized ForEachEdge reduces to O(‖B‖ + |v̄|·|E|) (paper §4.3).
func (g *Graph) ForEachEdgeOriginal(fn func(i, j entity.ID, w float64)) {
	var seen, weighed int64
	g.blocks.ForEachComparison(func(blockID int, a, b entity.ID) bool {
		if seen++; seen&obs.StrideMask == 0 && g.obs.Canceled() {
			return false
		}
		common, ok := g.intersect(int32(blockID), a, b)
		if !ok {
			return true // redundant comparison: skip
		}
		g.sc.cells[b].common = common
		one := [1]entity.ID{b}
		weighed++
		fn(a, b, g.fillWeights(a, one[:])[0])
		return true
	})
	g.obs.Counter(obs.CtrEdgesWeighted).Add(weighed)
}

// intersect derives the co-occurrence statistic of a and b (Alg. 2, lines
// 7-15): the least common block decides redundancy (LeCoBI) with an early
// exit, and only non-redundant comparisons pay for the full intersection.
// Both steps use the galloping merge, which skips through skewed list
// pairs in logarithmic hops. It reports ok=false when the first common
// block ID differs from blockID, which marks the comparison as redundant.
func (g *Graph) intersect(blockID int32, a, b entity.ID) (common float64, ok bool) {
	la, lb := g.index.BlockList(a), g.index.BlockList(b)
	first := postings.First(la, lb)
	if first < 0 || first != blockID {
		return 0, false
	}
	if g.invCard != nil {
		// ARCS accumulates in ascending block order, exactly like the
		// two-pointer walk it replaces, so the float sum is bit-identical.
		postings.ForEachCommon(la, lb, func(bid int32) {
			common += g.invCard[bid]
		})
	} else {
		common = float64(postings.IntersectCount(la, lb))
	}
	return common, true
}

// intersectAll derives the co-occurrence statistic of a and b from their
// full block-list intersection, without a LeCoBI early exit (the node-centric
// original traversal's neighbor set is already distinct), with the same
// galloping merge as intersect.
func (g *Graph) intersectAll(a, b entity.ID) (common float64) {
	la, lb := g.index.BlockList(a), g.index.BlockList(b)
	if g.invCard == nil {
		return float64(postings.IntersectCount(la, lb))
	}
	postings.ForEachCommon(la, lb, func(bid int32) {
		common += g.invCard[bid]
	})
	return common
}
