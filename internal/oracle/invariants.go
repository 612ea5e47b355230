package oracle

import (
	"fmt"

	"metablocking/internal/block"
	"metablocking/internal/blockproc"
	"metablocking/internal/core"
	"metablocking/internal/entity"
)

// CheckWeights verifies the paper's §4.2 equivalence theorem on one
// collection and scheme: Optimized Edge Weighting (Alg. 3), Original Edge
// Weighting (Alg. 2) and the oracle's explicit intersection must agree on
// the exact edge set and on bit-identical weights. The edge traversals must
// emit every edge once; the node traversals, under either weighting, once
// from each endpoint, with the same bits both times.
func CheckWeights(c *block.Collection, scheme core.Scheme) error {
	want := NewGraph(c, scheme).Weights
	for _, tr := range []struct {
		name      string
		traverse  func(func(i, j entity.ID, w float64))
		endpoints int
	}{
		{"optimized (Alg. 3)", core.NewGraph(c, scheme).ForEachEdge, 1},
		{"original (Alg. 2)", withOriginal(core.NewGraph(c, scheme)).ForEachEdgeOriginal, 1},
		{"optimized nodes (Alg. 3)", arcsOf(core.NewGraph(c, scheme)), 2},
		{"original nodes (Alg. 2)", arcsOf(withOriginal(core.NewGraph(c, scheme))), 2},
	} {
		// An edge traversal's (i, j) is keyed by its pair, a node
		// traversal's by the direction it was seen in.
		key := entity.MakePair
		if tr.endpoints == 2 {
			key = func(i, j entity.ID) entity.Pair { return entity.Pair{A: i, B: j} }
		}
		got := make(map[entity.Pair]float64, tr.endpoints*len(want))
		var err error
		tr.traverse(func(i, j entity.ID, w float64) {
			k := key(i, j)
			if _, seen := got[k]; seen && err == nil {
				err = fmt.Errorf("%s/%v: edge %v was emitted twice from %d", tr.name, scheme, entity.MakePair(i, j), i)
			}
			got[k] = w
		})
		if err != nil {
			return err
		}
		if len(got) != tr.endpoints*len(want) {
			return fmt.Errorf("%s/%v: %d edges seen, oracle has %d×%d", tr.name, scheme, len(got), len(want), tr.endpoints)
		}
		for k, gw := range got {
			w, ok := want[entity.MakePair(k.A, k.B)]
			if !ok {
				return fmt.Errorf("%s/%v: edge %v not in the oracle", tr.name, scheme, k)
			}
			if gw != w {
				return fmt.Errorf("%s/%v: edge %v weight %v ≠ oracle %v (diff %g)",
					tr.name, scheme, k, gw, w, gw-w)
			}
		}
	}
	return nil
}

// arcsOf turns g's node traversal into a stream of its (node, neighbor,
// weight) arcs.
func arcsOf(g *core.Graph) func(func(i, j entity.ID, w float64)) {
	return func(fn func(i, j entity.ID, w float64)) {
		g.ForEachNode(func(i entity.ID, neighbors []entity.ID, weights []float64) {
			for n, j := range neighbors {
				fn(i, j, weights[n])
			}
		})
	}
}

func withOriginal(g *core.Graph) *core.Graph {
	g.OriginalWeighting = true
	return g
}

// CheckPruning verifies that every production implementation of one
// scheme × algorithm cell — serial optimized, serial with Original Edge
// Weighting and the parallel path at each given worker count — retains
// exactly the oracle's comparison multiset.
func CheckPruning(c *block.Collection, scheme core.Scheme, alg core.Algorithm, workers ...int) error {
	want := Prune(c, scheme, alg)
	label := func(kind string) string { return fmt.Sprintf("%v/%v %s", scheme, alg, kind) }

	serial := SortPairs(core.NewGraph(c, scheme).Prune(alg))
	if err := samePairs(label("serial"), serial, want); err != nil {
		return err
	}
	orig := SortPairs(withOriginal(core.NewGraph(c, scheme)).Prune(alg))
	if err := samePairs(label("original-weighting"), orig, want); err != nil {
		return err
	}
	for _, w := range workers {
		par := core.NewGraph(c, scheme).PruneParallel(alg, w)
		if err := samePairs(label(fmt.Sprintf("parallel workers=%d", w)), par, want); err != nil {
			return err
		}
	}
	// Redundancy-freedom: the paper's §5.1 variants emit each pair at
	// most once.
	if alg == core.RedefinedCNP || alg == core.ReciprocalCNP ||
		alg == core.RedefinedWNP || alg == core.ReciprocalWNP {
		for i := 1; i < len(want); i++ {
			if want[i] == want[i-1] {
				return fmt.Errorf("%v/%v: pair %v retained twice", scheme, alg, want[i])
			}
		}
	}
	return nil
}

// CheckFamilies verifies the structural theorems tying the node-centric
// families together (paper §5.1–§5.2), using only oracle outputs:
// Redefined = distinct(Original) and Reciprocal ⊆ Redefined, for both the
// cardinality (CNP) and weight (WNP) families.
func CheckFamilies(c *block.Collection, scheme core.Scheme) error {
	g := NewGraph(c, scheme)
	for _, fam := range []struct{ orig, redef, recip core.Algorithm }{
		{core.CNP, core.RedefinedCNP, core.ReciprocalCNP},
		{core.WNP, core.RedefinedWNP, core.ReciprocalWNP},
	} {
		orig := distinct(g.Prune(fam.orig))
		redef := g.Prune(fam.redef)
		if err := samePairs(fmt.Sprintf("%v/%v vs distinct original", scheme, fam.redef), redef, orig); err != nil {
			return err
		}
		set := make(map[entity.Pair]bool, len(redef))
		for _, p := range redef {
			set[p] = true
		}
		for _, p := range g.Prune(fam.recip) {
			if !set[p] {
				return fmt.Errorf("%v/%v: reciprocal pair %v not in redefined", scheme, fam.recip, p)
			}
		}
	}
	return nil
}

// CheckFiltering verifies the production Block Filtering — serial and at
// each given worker count — against the brute-force reference: identical
// block order, keys and members.
func CheckFiltering(c *block.Collection, ratio float64, workers ...int) error {
	want := FilterBlocks(c, ratio)
	for _, w := range append([]int{1}, workers...) {
		got := blockproc.BlockFiltering{Ratio: ratio, Workers: w}.Apply(c)
		if got.Len() != want.Len() {
			return fmt.Errorf("filter r=%.2f workers=%d: %d blocks, oracle has %d",
				ratio, w, got.Len(), want.Len())
		}
		for i := range want.Blocks {
			gb, wb := &got.Blocks[i], &want.Blocks[i]
			if gb.Key != wb.Key || !sameIDs(gb.E1, wb.E1) || !sameIDs(gb.E2, wb.E2) {
				return fmt.Errorf("filter r=%.2f workers=%d: block %d is %q%v|%v, oracle has %q%v|%v",
					ratio, w, i, gb.Key, gb.E1, gb.E2, wb.Key, wb.E1, wb.E2)
			}
		}
	}
	return nil
}

// CheckAll sweeps the full scheme × algorithm matrix on one collection:
// weight equality for every scheme, comparison-set equality for every
// cell (at the given worker counts), and the family theorems.
func CheckAll(c *block.Collection, workers ...int) error {
	for _, scheme := range core.AllSchemes {
		if err := CheckWeights(c, scheme); err != nil {
			return err
		}
		if err := CheckFamilies(c, scheme); err != nil {
			return err
		}
		for _, alg := range core.AllAlgorithms {
			if err := CheckPruning(c, scheme, alg, workers...); err != nil {
				return err
			}
		}
	}
	return nil
}

// samePairs compares two canonically sorted comparison multisets
// (treating nil and empty alike).
func samePairs(label string, got, want []entity.Pair) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d pairs, oracle has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: pair %d is %v, oracle has %v", label, i, got[i], want[i])
		}
	}
	return nil
}

func sameIDs(a, b []entity.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// distinct returns the sorted distinct pairs of a sorted multiset.
func distinct(pairs []entity.Pair) []entity.Pair {
	out := make([]entity.Pair, 0, len(pairs))
	for i, p := range pairs {
		if i == 0 || p != pairs[i-1] {
			out = append(out, p)
		}
	}
	return out
}
