package oracle

import (
	"sort"

	"metablocking/internal/block"
	"metablocking/internal/core"
	"metablocking/internal/entity"
)

// Prune materializes the blocking graph and applies the pruning algorithm
// the set-based way: full sorts over explicit edge lists, maps for the
// retain-once semantics. The returned comparison multiset is canonically
// sorted; the original node-centric algorithms (CNP, WNP) may list a pair
// twice — exactly the redundant comparisons the Redefined variants
// eliminate.
func Prune(c *block.Collection, scheme core.Scheme, a core.Algorithm) []entity.Pair {
	return NewGraph(c, scheme).Prune(a)
}

// Prune applies the pruning algorithm to an already materialized graph.
func (g *Graph) Prune(a core.Algorithm) []entity.Pair {
	switch a {
	case core.CEP:
		return g.cep()
	case core.WEP:
		return g.wep()
	case core.CNP:
		return g.cnp()
	case core.WNP:
		return g.wnp()
	case core.RedefinedCNP:
		return g.cnpVariant(false)
	case core.ReciprocalCNP:
		return g.cnpVariant(true)
	case core.RedefinedWNP:
		return g.wnpVariant(false)
	case core.ReciprocalWNP:
		return g.wnpVariant(true)
	default:
		panic("oracle: unknown algorithm")
	}
}

// CardinalityEdgeThreshold restates CEP's K = ⌊Σ|b|/2⌋.
func CardinalityEdgeThreshold(c *block.Collection) int {
	return int(assignments(c) / 2)
}

// CardinalityNodeThreshold restates CNP's k = max(1, ⌊Σ|b|/|E|⌋−1), 1 for
// an empty collection.
func CardinalityNodeThreshold(c *block.Collection) int {
	if c.NumEntities == 0 {
		return 1
	}
	k := int(assignments(c))/c.NumEntities - 1
	if k < 1 {
		k = 1
	}
	return k
}

// cep sorts all edges under the canonical rank order and keeps the first
// K.
func (g *Graph) cep() []entity.Pair {
	k := CardinalityEdgeThreshold(g.c)
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool { return rankBefore(edges[i], edges[j]) })
	if k > len(edges) {
		k = len(edges)
	}
	out := make([]entity.Pair, 0, k)
	for _, e := range edges[:k] {
		out = append(out, e.Pair)
	}
	return SortPairs(out)
}

// wep keeps every edge at or above the exact global mean weight.
func (g *Graph) wep() []entity.Pair {
	edges := g.Edges()
	if len(edges) == 0 {
		return nil
	}
	ws := make([]float64, len(edges))
	for i, e := range edges {
		ws[i] = e.Weight
	}
	mean := exactMean(ws)
	var out []entity.Pair
	for _, e := range edges {
		if e.Weight >= mean {
			out = append(out, e.Pair)
		}
	}
	return SortPairs(out)
}

// incident returns node i's incident edges sorted under the canonical
// rank order (heaviest first).
func (g *Graph) incident(i entity.ID) []Edge {
	ns := g.Neighbors[i]
	out := make([]Edge, 0, len(ns))
	for _, j := range ns {
		p := entity.MakePair(i, j)
		out = append(out, Edge{Pair: p, Weight: g.Weights[p]})
	}
	sort.Slice(out, func(a, b int) bool { return rankBefore(out[a], out[b]) })
	return out
}

// nodes returns every node with at least one neighbor, ascending.
func (g *Graph) nodes() []entity.ID {
	out := make([]entity.ID, 0, len(g.Neighbors))
	for id, ns := range g.Neighbors {
		if len(ns) > 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// cnp keeps, per node, the top-k incident edges; every retained directed
// edge is one comparison, so reciprocally ranked pairs appear twice.
func (g *Graph) cnp() []entity.Pair {
	k := CardinalityNodeThreshold(g.c)
	var out []entity.Pair
	for _, i := range g.nodes() {
		ranked := g.incident(i)
		if k < len(ranked) {
			ranked = ranked[:k]
		}
		for _, e := range ranked {
			out = append(out, e.Pair)
		}
	}
	return SortPairs(out)
}

// wnp keeps, per node, the incident edges at or above the neighborhood's
// exact mean, one comparison per retained directed edge.
func (g *Graph) wnp() []entity.Pair {
	var out []entity.Pair
	for _, i := range g.nodes() {
		ranked := g.incident(i)
		ws := make([]float64, len(ranked))
		for n, e := range ranked {
			ws[n] = e.Weight
		}
		mean := exactMean(ws)
		for _, e := range ranked {
			if e.Weight >= mean {
				out = append(out, e.Pair)
			}
		}
	}
	return SortPairs(out)
}

// cnpVariant implements Redefined CNP (reciprocal=false: a pair survives
// when either endpoint ranks it in its top-k, retained once) and
// Reciprocal CNP (reciprocal=true: both endpoints must rank it).
func (g *Graph) cnpVariant(reciprocal bool) []entity.Pair {
	k := CardinalityNodeThreshold(g.c)
	votes := make(map[entity.Pair]int)
	for _, i := range g.nodes() {
		ranked := g.incident(i)
		if k < len(ranked) {
			ranked = ranked[:k]
		}
		for _, e := range ranked {
			votes[e.Pair]++
		}
	}
	return collectVotes(votes, reciprocal)
}

// wnpVariant implements Redefined WNP (either neighborhood's mean
// threshold admits the edge, retained once) and Reciprocal WNP (both
// must).
func (g *Graph) wnpVariant(reciprocal bool) []entity.Pair {
	thresholds := make(map[entity.ID]float64)
	for _, i := range g.nodes() {
		ranked := g.incident(i)
		ws := make([]float64, len(ranked))
		for n, e := range ranked {
			ws[n] = e.Weight
		}
		thresholds[i] = exactMean(ws)
	}
	votes := make(map[entity.Pair]int)
	for p, w := range g.Weights {
		if w >= thresholds[p.A] {
			votes[p]++
		}
		if w >= thresholds[p.B] {
			votes[p]++
		}
	}
	return collectVotes(votes, reciprocal)
}

// collectVotes keeps pairs with two endpoint votes (reciprocal) or at
// least one (redefined), each exactly once.
func collectVotes(votes map[entity.Pair]int, reciprocal bool) []entity.Pair {
	var out []entity.Pair
	for p, n := range votes {
		if reciprocal && n < 2 {
			continue
		}
		out = append(out, p)
	}
	return SortPairs(out)
}
