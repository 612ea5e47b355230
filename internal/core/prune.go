package core

import (
	"fmt"
	"math"

	"metablocking/internal/entity"
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

// Prune applies the given pruning algorithm on one worker and returns the
// retained comparisons in canonical (A, B) order: it is PruneParallel(a, 1).
// For the original node-centric algorithms (CNP, WNP) the result may contain
// the same pair twice — those are exactly the redundant comparisons the
// Redefined variants eliminate.
func (g *Graph) Prune(a Algorithm) []entity.Pair { return g.PruneParallel(a, 1) }

// CardinalityEdgeThreshold returns CEP's global K = ⌊Σ|b|/2⌋.
func (g *Graph) CardinalityEdgeThreshold() int {
	return int(g.blocks.Assignments() / 2)
}

// CardinalityNodeThreshold returns CNP's per-node k = max(1, ⌊Σ|b|/|E|−1⌋);
// an empty collection has k = 1.
func (g *Graph) CardinalityNodeThreshold() int {
	if g.blocks.NumEntities == 0 {
		return 1
	}
	k := int(g.blocks.Assignments())/g.blocks.NumEntities - 1
	if k < 1 {
		k = 1
	}
	return k
}

// nodeThreshold is one node's pruning criterion: the last admitted key of
// its neighborhood under (weight descending, neighbor ascending) — which is
// edgeHeap.beats restricted to the edges of one node.
type nodeThreshold struct {
	w  float64
	id entity.ID
}

// admitsAll is the threshold of a node with at most k neighbors under the
// cardinality criterion.
var admitsAll = nodeThreshold{w: math.Inf(-1), id: math.MaxInt32}

// admits reports whether the node's edge of weight w to neighbor other meets
// the criterion.
func (t nodeThreshold) admits(w float64, other entity.ID) bool {
	return w > t.w || (w == t.w && other <= t.id)
}

// newTopK returns the heap the cardinality-based algorithms rank each
// neighborhood with, nil for the weight-based ones.
func (g *Graph) newTopK(a Algorithm) *edgeHeap {
	switch a {
	case CNP, RedefinedCNP, ReciprocalCNP:
		return newEdgeHeap(g.CardinalityNodeThreshold())
	}
	return nil
}

// thresholdOf derives node i's criterion from its neighborhood. Weight-based
// (topK == nil): the mean with no bound on the neighbor, i.e. w >= mean,
// deciding every incident edge as the exact mean does — the naive mean
// where certifiedMean certifies it, the exact one where it does not.
// Cardinality-based: the k-th key of the neighborhood — the heap's root once
// every neighbor was offered — which admits exactly the top-k edges Alg. 4's
// sorted stack holds.
func (g *Graph) thresholdOf(topK *edgeHeap, i entity.ID, neighbors []entity.ID, weights []float64) nodeThreshold {
	if topK == nil {
		mean, ok := certifiedMean(weights, g.scheme == CBS)
		if !ok {
			mean = g.meanOf(weights)
			g.sc.fallbacks++
		}
		return nodeThreshold{w: mean, id: math.MaxInt32}
	}
	if len(neighbors) <= topK.cap {
		return admitsAll
	}
	topK.reset()
	for n, j := range neighbors {
		topK.offer(weights[n], i, j)
	}
	return nodeThreshold{w: topK.items[0].w, id: topK.items[0].j}
}

// unitRoundoff is u = 2⁻⁵³, the relative error of one rounded float64
// operation.
const unitRoundoff = 0x1p-53

// certifiedMean returns the left-to-right mean m of xs and whether it is
// certified: whether x >= m holds for every x in xs exactly when x >= m*
// does, with m* = fl(fl(Σx)/n) the exact mean meanOf computes. A node's
// threshold is only ever compared with the weights of its own edges — the
// very values summed into it — so a certified m decides every edge as m*
// would, and the exact sum is paid for only where it may not.
//
// The naive sum s of n values is within γ(n−1)·Σ|x| of the exact sum S,
// where γ(k) = k·u/(1−k·u) (Higham, Accuracy and Stability of Numerical
// Algorithms, §4.2). The roundings of fl(S), of fl(S)/n and of s/n add three
// more u·|S|/n, so |m − m*| ≤ γ(n+2)·Σ|x|/n. The band is twice that: the
// slack covers the rounding of the computed Σ|x| and of the band's own
// arithmetic, and the absolute 2⁻¹⁰²² the precision subnormals lose. An x
// with |x − m| > band compares with m and m* alike, and rounding is
// monotone, so fl(|x − m|) > band proves it; any other x, or a NaN or
// infinite band (a NaN or infinite weight, or an overflowing sum), leaves
// the mean uncertified. With n ≤ 2 the naive sum is one rounded addition,
// fl(S) itself.
//
// When integral is set every x is an integer — a CBS weight is a count of
// shared blocks — and while Σ|x| < 2⁵³ every partial sum is an integer
// float64 holds exactly, so s = S, m = m*, and the mean is certified with
// no band to scan.
func certifiedMean(xs []float64, integral bool) (float64, bool) {
	if len(xs) == 0 {
		return 0, true
	}
	var s, abs float64
	for _, x := range xs {
		s += x
		abs += math.Abs(x)
	}
	n := float64(len(xs))
	mean := s / n
	if integral && abs < 0x1p53 {
		return mean, true
	}
	nu := (n + 2) * unitRoundoff
	band := 2*nu/(1-nu)*abs/n + 0x1p-1022
	if !(band < math.Inf(1)) {
		return mean, false
	}
	if len(xs) <= 2 {
		return mean, true
	}
	for _, x := range xs {
		if math.Abs(x-mean) <= band {
			return mean, false
		}
	}
	return mean, true
}

// copies is how many comparisons an edge yields given the verdicts of its
// two endpoints: one per admitting endpoint for the original algorithms
// (their redundant comparisons), one if either admits it for the Redefined
// variants (§5.1), one if both do for the Reciprocal ones (§5.2).
func (a Algorithm) copies(okI, okJ bool) int {
	switch a {
	case CNP, WNP:
		n := 0
		if okI {
			n++
		}
		if okJ {
			n++
		}
		return n
	case RedefinedCNP, RedefinedWNP:
		if okI || okJ {
			return 1
		}
	default:
		if okI && okJ {
			return 1
		}
	}
	return 0
}
