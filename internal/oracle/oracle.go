// Package oracle is a deliberately naive, obviously-correct reference
// implementation of the meta-blocking pipeline, used only by tests.
//
// Every production implementation of the same math — Optimized Edge
// Weighting (Alg. 3) and its parallel shards — is
// cross-checked against this package by the differential harness
// (oracle_diff_test.go at the repository root) and the fuzz targets in
// this package. The oracle favours clarity over speed: explicit block-list
// intersection per pair (Alg. 2), hash sets instead of epoch-flagged
// scratch arrays, full sorts instead of bounded heaps, and arbitrary-
// precision summation instead of Shewchuk partials. Nothing here shares
// code with internal/core beyond the entity/block data model and the
// Scheme/Algorithm enums.
//
// The paper's theorems the checkers in invariants.go encode:
//
//   - Alg. 2 ≡ Alg. 3: both edge weightings produce bit-identical weights
//     for every scheme (paper §4.2).
//   - Redefined CNP/WNP retain exactly the distinct comparisons of the
//     original node-centric methods, each at most once (paper §5.1).
//   - Reciprocal comparisons are a subset of the Redefined ones (§5.2).
//   - Results are deterministic across worker counts and identical with
//     or without observability attached.
package oracle

import (
	"math"
	"math/big"
	"sort"

	"metablocking/internal/block"
	"metablocking/internal/core"
	"metablocking/internal/entity"
)

// Edge is one comparison of the blocking graph with its weight.
type Edge struct {
	Pair   entity.Pair
	Weight float64
}

// Graph is the fully materialized blocking graph: every distinct
// comparison with its naively computed weight, plus the per-node
// adjacency. Unlike core.Graph nothing is implicit or cached — the maps
// are the specification.
type Graph struct {
	// Weights maps every edge of the blocking graph to its weight.
	Weights map[entity.Pair]float64
	// Neighbors lists every node's distinct co-occurring profiles in
	// ascending ID order.
	Neighbors map[entity.ID][]entity.ID

	c *block.Collection
}

// blockLists returns, per entity, the ascending list of block IDs that
// contain it — the inverted Entity Index of the paper, rebuilt the naive
// way (one append per membership, blocks visited in ID order).
func blockLists(c *block.Collection) map[entity.ID][]int32 {
	lists := make(map[entity.ID][]int32)
	for bid := range c.Blocks {
		b := &c.Blocks[bid]
		for _, id := range b.E1 {
			lists[id] = append(lists[id], int32(bid))
		}
		for _, id := range b.E2 {
			lists[id] = append(lists[id], int32(bid))
		}
	}
	return lists
}

// neighborSets returns every node's set of distinct co-occurring profiles,
// honouring the task semantics: all co-members for Dirty ER, only
// cross-source co-members for Clean-Clean ER.
func neighborSets(c *block.Collection) map[entity.ID]map[entity.ID]bool {
	sets := make(map[entity.ID]map[entity.ID]bool)
	link := func(a, b entity.ID) {
		if sets[a] == nil {
			sets[a] = make(map[entity.ID]bool)
		}
		if sets[b] == nil {
			sets[b] = make(map[entity.ID]bool)
		}
		sets[a][b] = true
		sets[b][a] = true
	}
	for bid := range c.Blocks {
		b := &c.Blocks[bid]
		if c.Task == entity.CleanClean {
			for _, a := range b.E1 {
				for _, e := range b.E2 {
					link(a, e)
				}
			}
			continue
		}
		for i := 0; i < len(b.E1); i++ {
			for j := i + 1; j < len(b.E1); j++ {
				if b.E1[i] != b.E1[j] {
					link(b.E1[i], b.E1[j])
				}
			}
		}
	}
	return sets
}

// intersect returns the ascending block IDs shared by the two lists, by
// the most literal method possible: for every ID of the first list, a
// linear membership scan of the second.
func intersect(la, lb []int32) []int32 {
	var common []int32
	for _, x := range la {
		for _, y := range lb {
			if x == y {
				common = append(common, x)
				break
			}
		}
	}
	return common
}

// NewGraph materializes the blocking graph of the collection under the
// given weighting scheme, deriving every edge weight from the explicit
// block-list intersection of its two endpoints (Alg. 2 applied
// exhaustively, with no LeCoBI shortcut: neighbor sets are already
// distinct).
func NewGraph(c *block.Collection, scheme core.Scheme) *Graph {
	lists := blockLists(c)
	sets := neighborSets(c)

	// |VB| counts profiles placed in at least one block — including
	// members of singleton blocks, which have no incident edges.
	numNodes := len(lists)
	numBlocks := len(c.Blocks) // |B| includes blocks with no comparisons

	// 1/‖b‖ per block, for ARCS.
	invCard := make([]float64, numBlocks)
	for bid := range c.Blocks {
		if n := c.Blocks[bid].Comparisons(); n > 0 {
			invCard[bid] = 1 / float64(n)
		}
	}

	// Node degrees |vi| = number of distinct neighbors, for EJS.
	degree := func(id entity.ID) int32 { return int32(len(sets[id])) }

	g := &Graph{
		Weights:   make(map[entity.Pair]float64),
		Neighbors: make(map[entity.ID][]entity.ID, len(sets)),
		c:         c,
	}
	for id, set := range sets {
		ns := make([]entity.ID, 0, len(set))
		for j := range set {
			ns = append(ns, j)
		}
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
		g.Neighbors[id] = ns
	}

	for id, ns := range g.Neighbors {
		for _, j := range ns {
			if j < id {
				continue // each edge weighed once, from its smaller endpoint
			}
			common := intersect(lists[id], lists[j])
			// The co-occurrence statistic: |Bij|, or Σ 1/‖b‖ for ARCS,
			// summed in ascending block-ID order (the order every
			// production traversal uses, so ARCS sums round identically).
			var stat float64
			if scheme == core.ARCS {
				for _, bid := range common {
					stat += invCard[bid]
				}
			} else {
				stat = float64(len(common))
			}
			w := schemeWeight(scheme, stat,
				len(lists[id]), len(lists[j]),
				degree(id), degree(j),
				float64(numBlocks), float64(numNodes))
			g.Weights[entity.MakePair(id, j)] = w
		}
	}
	return g
}

// schemeWeight evaluates the five weighting formulas of Fig. 4. The
// operand pair is canonicalized exactly as the paper's symmetric formulas
// demand — the weight must not depend on which endpoint the edge is
// evaluated from, and float multiplication is commutative but not
// associative, so the factors are ordered by (|Bi|, |vi|).
func schemeWeight(scheme core.Scheme, common float64, bi, bj int, di, dj int32, numBlocks, numNodes float64) float64 {
	if bi > bj || (bi == bj && di > dj) {
		bi, bj = bj, bi
		di, dj = dj, di
	}
	switch scheme {
	case core.ARCS, core.CBS:
		return common
	case core.ECBS:
		return common * math.Log(numBlocks/float64(bi)) * math.Log(numBlocks/float64(bj))
	case core.JS:
		return common / (float64(bi) + float64(bj) - common)
	case core.EJS:
		js := common / (float64(bi) + float64(bj) - common)
		return js * math.Log(numNodes/float64(di)) * math.Log(numNodes/float64(dj))
	default:
		panic("oracle: unknown scheme")
	}
}

// Edges returns every edge sorted canonically by pair.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.Weights))
	for p, w := range g.Weights {
		out = append(out, Edge{Pair: p, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool { return pairLess(out[i].Pair, out[j].Pair) })
	return out
}

// pairLess is the canonical (A, B) order on pairs.
func pairLess(p, q entity.Pair) bool {
	if p.A != q.A {
		return p.A < q.A
	}
	return p.B < q.B
}

// rankBefore is the canonical total order used by every top-K selection:
// heavier first, ties broken by the lexicographically smaller pair. It
// restates core's edgeHeap order independently; top-K under a total order
// is traversal-order independent, so oracle and production select the
// same sets.
func rankBefore(a, b Edge) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	return pairLess(a.Pair, b.Pair)
}

// exactMean returns the correctly rounded mean of xs: the sum is
// accumulated in arbitrary-precision floats (wide enough that no rounding
// ever occurs), rounded once to float64, then divided by the count — the
// same two rounding steps the production floatsum package performs, so
// boundary edges compare identically against thresholds.
func exactMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// 4096 bits cover the full float64 exponent range plus carries, so
	// the accumulated sum is exact, not just well-conditioned.
	sum := new(big.Float).SetPrec(4096)
	for _, x := range xs {
		sum.Add(sum, new(big.Float).SetPrec(4096).SetFloat64(x))
	}
	s, _ := sum.Float64() // one correctly rounded conversion
	return s / float64(len(xs))
}

// assignments returns Σ|b|, counting every membership (empty and
// singleton blocks included).
func assignments(c *block.Collection) int64 {
	var total int64
	for i := range c.Blocks {
		total += int64(len(c.Blocks[i].E1) + len(c.Blocks[i].E2))
	}
	return total
}

// SortPairs orders a comparison multiset canonically in place and returns
// it; every oracle pruning result and every production result compared
// against it goes through this normalization.
func SortPairs(pairs []entity.Pair) []entity.Pair {
	sort.Slice(pairs, func(i, j int) bool { return pairLess(pairs[i], pairs[j]) })
	return pairs
}
