package core

import (
	"fmt"

	"metablocking/internal/entity"
	"metablocking/internal/floatsum"
)

// Algorithm selects the pruning algorithm applied to the blocking graph.
type Algorithm int

const (
	// CEP — Cardinality Edge Pruning: retains the top-K edges of the
	// entire graph, K = ⌊Σ|b|/2⌋.
	CEP Algorithm = iota
	// CNP — Cardinality Node Pruning: retains the top-k edges of every
	// node neighborhood, k = ⌊Σ|b|/|E|−1⌋. The original formulation keeps
	// an edge once per endpoint that ranked it, yielding redundant
	// comparisons.
	CNP
	// WEP — Weighted Edge Pruning: retains edges at or above the mean
	// edge weight of the entire graph.
	WEP
	// WNP — Weighted Node Pruning: retains, per node, the edges at or
	// above the neighborhood's mean weight; like CNP it yields redundant
	// comparisons.
	WNP
	// RedefinedCNP (§5.1, Alg. 4) retains an edge once if it ranks in the
	// top-k of either incident node — CNP recall with no redundancy.
	RedefinedCNP
	// ReciprocalCNP (§5.2) retains an edge only if it ranks in the top-k
	// of both incident nodes.
	ReciprocalCNP
	// RedefinedWNP (§5.1, Alg. 5) retains an edge once if it meets the
	// weight threshold of either incident neighborhood.
	RedefinedWNP
	// ReciprocalWNP (§5.2) retains an edge only if it meets the weight
	// thresholds of both incident neighborhoods.
	ReciprocalWNP
)

// AllAlgorithms lists every pruning algorithm.
var AllAlgorithms = []Algorithm{CEP, CNP, WEP, WNP, RedefinedCNP, ReciprocalCNP, RedefinedWNP, ReciprocalWNP}

// String returns the algorithm's name as used in the paper.
func (a Algorithm) String() string {
	switch a {
	case CEP:
		return "CEP"
	case CNP:
		return "CNP"
	case WEP:
		return "WEP"
	case WNP:
		return "WNP"
	case RedefinedCNP:
		return "Redefined CNP"
	case ReciprocalCNP:
		return "Reciprocal CNP"
	case RedefinedWNP:
		return "Redefined WNP"
	case ReciprocalWNP:
		return "Reciprocal WNP"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// NodeCentric reports whether the algorithm prunes per node neighborhood.
func (a Algorithm) NodeCentric() bool { return a != CEP && a != WEP }

// edges dispatches to the configured edge traversal.
func (g *Graph) edges(fn func(i, j entity.ID, w float64)) {
	if g.OriginalWeighting {
		g.ForEachEdgeOriginal(fn)
		return
	}
	g.ForEachEdge(fn)
}

// nodes dispatches to the configured node traversal.
func (g *Graph) nodes(fn func(i entity.ID, neighbors []entity.ID, weights []float64)) {
	if g.OriginalWeighting {
		g.ForEachNodeOriginal(fn)
		return
	}
	g.ForEachNode(fn)
}

// Prune applies the given pruning algorithm and returns the retained
// comparisons. For the original node-centric algorithms (CNP, WNP) the
// result may contain the same pair twice — those are exactly the redundant
// comparisons the Redefined variants eliminate.
func (g *Graph) Prune(a Algorithm) []entity.Pair {
	switch a {
	case CEP:
		return g.cep()
	case CNP:
		return g.cnp()
	case WEP:
		return g.wep()
	case WNP:
		return g.wnp()
	case RedefinedCNP:
		return g.redefinedCNP(false)
	case ReciprocalCNP:
		return g.redefinedCNP(true)
	case RedefinedWNP:
		return g.redefinedWNP(false)
	case ReciprocalWNP:
		return g.redefinedWNP(true)
	default:
		panic(fmt.Sprintf("core: unknown pruning algorithm %d", int(a)))
	}
}

// CardinalityEdgeThreshold returns CEP's global K = ⌊Σ|b|/2⌋.
func (g *Graph) CardinalityEdgeThreshold() int {
	return int(g.blocks.Assignments() / 2)
}

// CardinalityNodeThreshold returns CNP's per-node k = max(1, ⌊Σ|b|/|E|−1⌋).
func (g *Graph) CardinalityNodeThreshold() int {
	k := int(g.blocks.Assignments())/g.blocks.NumEntities - 1
	if k < 1 {
		k = 1
	}
	return k
}

// cep retains the globally top-K weighted edges via a bounded min-heap.
func (g *Graph) cep() []entity.Pair {
	k := g.CardinalityEdgeThreshold()
	if k == 0 {
		return nil
	}
	h := newEdgeHeap(k)
	g.edges(func(i, j entity.ID, w float64) {
		h.offer(w, i, j)
	})
	out := make([]entity.Pair, 0, h.len())
	for _, e := range h.items {
		out = append(out, entity.MakePair(e.i, e.j))
	}
	return out
}

// wep retains edges at or above the graph's mean edge weight. The mean is
// derived in a first traversal and the pruning happens in a second one,
// since the implicit graph stores no weights. Like the neighborhood means,
// the global mean uses exact (correctly rounded) summation, so every
// implementation (serial, parallel) and every worker partition
// lands on the same threshold bit-for-bit — without materializing or
// sorting the edge weights.
func (g *Graph) wep() []entity.Pair {
	var acc floatsum.Acc
	g.edges(func(_, _ entity.ID, w float64) {
		acc.Add(w)
	})
	if acc.Count() == 0 {
		return nil
	}
	mean := acc.Mean()
	var out []entity.Pair
	g.edges(func(i, j entity.ID, w float64) {
		if w >= mean {
			out = append(out, entity.MakePair(i, j))
		}
	})
	return out
}

// cnp retains, per node, the top-k weighted incident edges. Every retained
// directed edge yields a comparison, so pairs ranked by both endpoints
// appear twice (the original algorithm's redundant comparisons).
func (g *Graph) cnp() []entity.Pair {
	k := g.CardinalityNodeThreshold()
	h := newEdgeHeap(k)
	var out []entity.Pair
	g.nodes(func(i entity.ID, neighbors []entity.ID, weights []float64) {
		h.reset()
		for n, j := range neighbors {
			h.offer(weights[n], i, j)
		}
		for _, e := range h.items {
			out = append(out, entity.MakePair(e.i, e.j))
		}
	})
	return out
}

// wnp retains, per node, the incident edges at or above the neighborhood's
// mean weight, one comparison per retained directed edge.
func (g *Graph) wnp() []entity.Pair {
	var out []entity.Pair
	g.nodes(func(i entity.ID, neighbors []entity.ID, weights []float64) {
		threshold := g.meanOf(weights)
		for n, j := range neighbors {
			if weights[n] >= threshold {
				out = append(out, entity.MakePair(i, j))
			}
		}
	})
	return out
}

// redefinedCNP implements Algorithms 4 (reciprocal=false, the disjunctive
// OR of Redefined CNP) and its conjunctive sibling Reciprocal CNP
// (reciprocal=true). One node-centric pass records which endpoints ranked
// each edge in their top-k; an edge is retained once if either endpoint
// (OR) or both endpoints (AND) ranked it.
func (g *Graph) redefinedCNP(reciprocal bool) []entity.Pair {
	k := g.CardinalityNodeThreshold()
	h := newEdgeHeap(k)
	marks := make(map[entity.Pair]uint8)
	g.nodes(func(i entity.ID, neighbors []entity.ID, weights []float64) {
		h.reset()
		for n, j := range neighbors {
			h.offer(weights[n], i, j)
		}
		for _, e := range h.items {
			p := entity.MakePair(e.i, e.j)
			if e.i < e.j {
				marks[p] |= 1 // ranked by the smaller endpoint
			} else {
				marks[p] |= 2 // ranked by the larger endpoint
			}
		}
	})
	return collectMarks(marks, reciprocal)
}

// redefinedWNP retains what Algorithm 5 (reciprocal=false) and Reciprocal
// WNP (reciprocal=true) retain — every edge meeting the mean-weight
// threshold of either (OR) or both (AND) endpoints, once — in a single
// node-centric pass instead of Alg. 5's two. Edge weights are bit-identical
// from either endpoint (weightContext.weight canonicalizes its operands),
// so an edge is decided at whichever endpoint is scanned second: nodes are
// visited in ascending ID, so by then the smaller endpoint's threshold is
// stored and the edge-centric pass has nothing left to do.
func (g *Graph) redefinedWNP(reciprocal bool) []entity.Pair {
	thresholds := make([]float64, g.blocks.NumEntities)
	var out []entity.Pair
	g.nodes(func(i entity.ID, neighbors []entity.ID, weights []float64) {
		ti := g.meanOf(weights)
		thresholds[i] = ti
		for n, j := range neighbors {
			if j > i {
				continue // decided when the scan reaches j
			}
			okI, okJ := weights[n] >= ti, weights[n] >= thresholds[j]
			if (reciprocal && okI && okJ) || (!reciprocal && (okI || okJ)) {
				out = append(out, entity.MakePair(i, j))
			}
		}
	})
	return out
}

func collectMarks(marks map[entity.Pair]uint8, reciprocal bool) []entity.Pair {
	out := make([]entity.Pair, 0, len(marks))
	for p, m := range marks {
		if reciprocal && m != 3 {
			continue
		}
		out = append(out, p)
	}
	return out
}
