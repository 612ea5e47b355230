package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"metablocking/internal/block"
	"metablocking/internal/blocking"
	"metablocking/internal/entity"
	"metablocking/internal/paperexample"
)

func pairSet(pairs []entity.Pair) map[entity.Pair]int {
	out := make(map[entity.Pair]int)
	for _, p := range pairs {
		out[p]++
	}
	return out
}

func sortedDistinct(pairs []entity.Pair) []entity.Pair {
	set := pairSet(pairs)
	out := make([]entity.Pair, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

func pairs(ids ...entity.ID) []entity.Pair {
	var out []entity.Pair
	for i := 0; i+1 < len(ids); i += 2 {
		out = append(out, entity.MakePair(ids[i], ids[i+1]))
	}
	return out
}

// TestWEPPaperExample: with exact mean 0.27179, WEP retains the four edges
// of weight ≥ mean: p1-p3, p2-p4, p3-p5, p5-p6. (The paper's Figure 2(b)
// uses the rounded threshold 1/4 and retains p4-p6 as well; the exact mean
// excludes it.)
func TestWEPPaperExample(t *testing.T) {
	g := exampleGraph(t, JS)
	got := sortedDistinct(g.Prune(WEP))
	want := pairs(paperexample.P1, paperexample.P3,
		paperexample.P2, paperexample.P4,
		paperexample.P3, paperexample.P5,
		paperexample.P5, paperexample.P6)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WEP = %v, want %v", got, want)
	}
	// Both duplicates survive — PC(B') = PC(B), as in Figure 2(c).
	gt := paperexample.GroundTruth()
	for _, p := range []entity.Pair{entity.MakePair(paperexample.P1, paperexample.P3), entity.MakePair(paperexample.P2, paperexample.P4)} {
		if _, ok := pairSet(got)[p]; !ok {
			t.Errorf("duplicate %v pruned", p)
		}
	}
	_ = gt
}

// TestCEPPaperExample: K = ⌊Σ|b|/2⌋ = ⌊18/2⌋ = 9 retains all edges except
// the lightest (p3-p4 at 1/8).
func TestCEPPaperExample(t *testing.T) {
	g := exampleGraph(t, JS)
	if g.CardinalityEdgeThreshold() != 9 {
		t.Fatalf("K = %d, want 9", g.CardinalityEdgeThreshold())
	}
	got := pairSet(g.Prune(CEP))
	if len(got) != 9 {
		t.Fatalf("CEP retained %d edges, want 9", len(got))
	}
	dropped := entity.MakePair(paperexample.P3, paperexample.P4)
	if _, ok := got[dropped]; ok {
		t.Fatalf("CEP kept the lightest edge %v", dropped)
	}
}

// TestCNPPaperExample: k = ⌊Σ|b|/|E|−1⌋ = ⌊18/6−1⌋ = 2; the directed
// retained edges were derived by hand from the Figure 2(a) weights.
func TestCNPPaperExample(t *testing.T) {
	g := exampleGraph(t, JS)
	if g.CardinalityNodeThreshold() != 2 {
		t.Fatalf("k = %d, want 2", g.CardinalityNodeThreshold())
	}
	got := g.Prune(CNP)
	// v1→{3,4}, v2→{3,4}, v3→{5,1}, v4→{2,6}, v5→{6,3}, v6→{5,4}:
	// 12 directed edges.
	if len(got) != 12 {
		t.Fatalf("CNP retained %d comparisons, want 12", len(got))
	}
	distinct := sortedDistinct(got)
	want := pairs(0, 2, 0, 3, 1, 2, 1, 3, 2, 4, 3, 5, 4, 5)
	if !reflect.DeepEqual(distinct, want) {
		t.Fatalf("CNP distinct = %v, want %v", distinct, want)
	}
}

// TestRedefinedCNPPaperExample: the distinct pairs of CNP, each retained
// once (7 comparisons instead of 12) — same recall, no redundancy.
func TestRedefinedCNPPaperExample(t *testing.T) {
	g := exampleGraph(t, JS)
	got := g.Prune(RedefinedCNP)
	if len(got) != 7 {
		t.Fatalf("Redefined CNP retained %d, want 7", len(got))
	}
	if !reflect.DeepEqual(sortedDistinct(got), sortedDistinct(g.Prune(CNP))) {
		t.Fatal("Redefined CNP must equal the distinct set of CNP")
	}
}

// TestReciprocalCNPPaperExample: only reciprocally ranked pairs survive.
func TestReciprocalCNPPaperExample(t *testing.T) {
	g := exampleGraph(t, JS)
	got := sortedDistinct(g.Prune(ReciprocalCNP))
	// Hand-derived: 1-3, 2-4, 3-5, 4-6, 5-6 are ranked by both endpoints;
	// 1-4 and 2-3 only by one.
	want := pairs(0, 2, 1, 3, 2, 4, 3, 5, 4, 5)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Reciprocal CNP = %v, want %v", got, want)
	}
}

// TestWNPPaperExample reproduces Figure 5: nine directed retained edges.
func TestWNPPaperExample(t *testing.T) {
	g := exampleGraph(t, JS)
	got := g.Prune(WNP)
	if len(got) != 9 {
		t.Fatalf("WNP retained %d comparisons, want 9 (Figure 5(b))", len(got))
	}
	distinct := sortedDistinct(got)
	want := pairs(0, 2, 1, 3, 2, 4, 3, 5, 4, 5)
	if !reflect.DeepEqual(distinct, want) {
		t.Fatalf("WNP distinct = %v, want %v", distinct, want)
	}
}

// TestRedefinedWNPPaperExample reproduces Figure 8: the same five pairs,
// one comparison each.
func TestRedefinedWNPPaperExample(t *testing.T) {
	g := exampleGraph(t, JS)
	got := g.Prune(RedefinedWNP)
	if len(got) != 5 {
		t.Fatalf("Redefined WNP retained %d, want 5 (Figure 8(b))", len(got))
	}
	if !reflect.DeepEqual(sortedDistinct(got), sortedDistinct(g.Prune(WNP))) {
		t.Fatal("Redefined WNP must equal the distinct set of WNP")
	}
}

// TestReciprocalWNPPaperExample reproduces Figure 9: four comparisons —
// p4-p6 is dropped because only p4 ranks it above its threshold.
func TestReciprocalWNPPaperExample(t *testing.T) {
	g := exampleGraph(t, JS)
	got := sortedDistinct(g.Prune(ReciprocalWNP))
	want := pairs(0, 2, 1, 3, 2, 4, 4, 5)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Reciprocal WNP = %v, want %v (Figure 9(b))", got, want)
	}
	// Recall is intact: both duplicates survive (paper: "at no cost in
	// recall" for this example).
	gt := paperexample.GroundTruth()
	set := pairSet(got)
	for _, p := range gt.Pairs() {
		if _, ok := set[p]; !ok {
			t.Errorf("duplicate %v pruned", p)
		}
	}
}

// TestPruneInvariants checks the structural relations between the
// algorithm families on random inputs:
//
//	reciprocal ⊆ redefined = distinct(original node-centric)
//	‖reciprocal‖ ≤ ‖redefined‖ ≤ ‖original‖
func TestPruneInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		c := randomDirtyBlocks(rng, 40, 35)
		for _, scheme := range AllSchemes {
			g := NewGraph(c, scheme)
			for _, fam := range []struct {
				orig, redef, recip Algorithm
			}{
				{CNP, RedefinedCNP, ReciprocalCNP},
				{WNP, RedefinedWNP, ReciprocalWNP},
			} {
				orig := g.Prune(fam.orig)
				redef := g.Prune(fam.redef)
				recip := g.Prune(fam.recip)
				if !reflect.DeepEqual(sortedDistinct(orig), sortedDistinct(redef)) {
					t.Fatalf("%v/%v: redefined ≠ distinct(original)", scheme, fam.redef)
				}
				redefSet := pairSet(redef)
				for _, p := range recip {
					if _, ok := redefSet[p]; !ok {
						t.Fatalf("%v/%v: reciprocal pair %v not in redefined", scheme, fam.recip, p)
					}
				}
				if len(recip) > len(redef) || len(redef) > len(orig) {
					t.Fatalf("%v: cardinality ordering violated: %d > %d > %d",
						scheme, len(recip), len(redef), len(orig))
				}
				// No redundancy in the redefined/reciprocal outputs.
				for p, n := range pairSet(redef) {
					if n > 1 {
						t.Fatalf("redefined retains %v twice", p)
					}
				}
			}
		}
	}
}

// TestCEPRespectsK: CEP never retains more than K edges and fills K when
// the graph has enough edges.
func TestCEPRespectsK(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := randomDirtyBlocks(rng, 30, 25)
	g := NewGraph(c, JS)
	k := g.CardinalityEdgeThreshold()
	got := g.Prune(CEP)
	edges := g.NumEdges()
	want := k
	if int64(want) > edges {
		want = int(edges)
	}
	if len(got) != want {
		t.Fatalf("CEP retained %d, want %d (K=%d, |EB|=%d)", len(got), want, k, edges)
	}
}

// TestCEPKeepsHeaviest: every retained edge weighs at least as much as
// every discarded one.
func TestCEPKeepsHeaviest(t *testing.T) {
	g := exampleGraph(t, JS)
	retained := pairSet(g.Prune(CEP))
	var minRetained, maxDropped float64 = 2, -1
	g.ForEachEdge(func(i, j entity.ID, w float64) {
		if _, ok := retained[entity.MakePair(i, j)]; ok {
			if w < minRetained {
				minRetained = w
			}
		} else if w > maxDropped {
			maxDropped = w
		}
	})
	if maxDropped > minRetained {
		t.Fatalf("dropped edge (%v) heavier than retained (%v)", maxDropped, minRetained)
	}
}

// TestWEPRetainsAboveMean: all retained edges are ≥ mean; all dropped are
// below.
func TestWEPRetainsAboveMean(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := randomDirtyBlocks(rng, 30, 25)
	for _, scheme := range AllSchemes {
		g := NewGraph(c, scheme)
		var sum float64
		var count int64
		g.ForEachEdge(func(_, _ entity.ID, w float64) { sum += w; count++ })
		mean := sum / float64(count)
		retained := pairSet(g.Prune(WEP))
		g.ForEachEdge(func(i, j entity.ID, w float64) {
			_, ok := retained[entity.MakePair(i, j)]
			if ok && w < mean {
				t.Fatalf("%v: retained edge below mean", scheme)
			}
			if !ok && w >= mean {
				t.Fatalf("%v: dropped edge at/above mean", scheme)
			}
		})
	}
}

// TestOriginalWeightingSamePruning: pruning with Algorithm 2 edge
// weighting yields the same retained sets as with Algorithm 3.
func TestOriginalWeightingSamePruning(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := randomDirtyBlocks(rng, 30, 25)
	for _, alg := range AllAlgorithms {
		gOpt := NewGraph(c, JS)
		gOrig := NewGraph(c, JS)
		gOrig.OriginalWeighting = true
		opt := sortedDistinct(gOpt.Prune(alg))
		orig := sortedDistinct(gOrig.Prune(alg))
		if !reflect.DeepEqual(opt, orig) {
			t.Fatalf("%v: optimized and original weighting disagree (%d vs %d pairs)",
				alg, len(opt), len(orig))
		}
	}
}

// TestRunMeasuresOverhead smoke-tests the orchestrator.
func TestRunMeasuresOverhead(t *testing.T) {
	blocks := blocking.TokenBlocking{}.Build(paperexample.Collection())
	res := Run(blocks, Config{Scheme: JS, Algorithm: ReciprocalWNP})
	if len(res.Pairs) != 4 {
		t.Fatalf("Run retained %d pairs, want 4", len(res.Pairs))
	}
	if res.OTime <= 0 {
		t.Fatal("OTime not measured")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range AllAlgorithms {
		s := a.String()
		if s == "" || seen[s] {
			t.Fatalf("algorithm name %q empty or duplicated", s)
		}
		seen[s] = true
	}
	for _, s := range AllSchemes {
		if s.String() == "" {
			t.Fatal("empty scheme name")
		}
	}
	if !CNP.NodeCentric() || CEP.NodeCentric() || WEP.NodeCentric() || !ReciprocalWNP.NodeCentric() {
		t.Fatal("NodeCentric misclassifies")
	}
}

func TestEdgeHeap(t *testing.T) {
	h := newEdgeHeap(3)
	for i, w := range []float64{5, 1, 3, 4, 2, 6} {
		h.offer(w, entity.ID(i), entity.ID(i+10))
	}
	if h.len() != 3 {
		t.Fatalf("len = %d, want 3", h.len())
	}
	var ws []float64
	for _, e := range h.items {
		ws = append(ws, e.w)
	}
	sort.Float64s(ws)
	if !reflect.DeepEqual(ws, []float64{4, 5, 6}) {
		t.Fatalf("heap kept %v, want top-3 {4,5,6}", ws)
	}
	if h.items[0].w != 4 {
		t.Fatalf("heap root = %v, want the smallest retained weight 4", h.items[0].w)
	}
	h.reset()
	if h.len() != 0 {
		t.Fatal("reset did not clear")
	}
	zero := newEdgeHeap(0)
	zero.offer(1, 0, 1)
	if zero.len() != 0 {
		t.Fatal("zero-capacity heap accepted an edge")
	}
}

// TestNodeCentricCoverage verifies the paper's §5 justification for
// node-centric pruning: every node with at least one incident edge keeps
// at least one retained comparison under CNP, WNP and their Redefined
// variants (each node retains its best edge, and the OR semantics preserve
// it). Reciprocal pruning deliberately gives up this guarantee.
func TestNodeCentricCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		c := randomDirtyBlocks(rng, 35, 30)
		for _, scheme := range AllSchemes {
			g := NewGraph(c, scheme)
			connected := make(map[entity.ID]bool)
			g.ForEachEdge(func(i, j entity.ID, _ float64) {
				connected[i], connected[j] = true, true
			})
			for _, alg := range []Algorithm{CNP, WNP, RedefinedCNP, RedefinedWNP} {
				covered := make(map[entity.ID]bool)
				for _, p := range g.Prune(alg) {
					covered[p.A], covered[p.B] = true, true
				}
				for id := range connected {
					if !covered[id] {
						t.Fatalf("trial %d %v/%v: node %d lost all comparisons",
							trial, scheme, alg, id)
					}
				}
			}
		}
	}
}

// TestPruningOnCleanCleanDataset runs every algorithm on a Clean-Clean
// synthetic dataset and checks basic sanity plus the PC ordering between
// the weight- and cardinality-based families.
func TestPruningOnCleanCleanDataset(t *testing.T) {
	ds := datagenD1C()
	blocks := blocking.TokenBlocking{}.Build(ds.Collection)
	detect := func(alg Algorithm) (recall float64, comparisons int) {
		g := NewGraph(blocks, JS)
		pairs := g.Prune(alg)
		found := make(map[entity.Pair]struct{})
		for _, p := range pairs {
			if ds.GroundTruth.Contains(p.A, p.B) {
				found[p] = struct{}{}
			}
		}
		return float64(len(found)) / float64(ds.GroundTruth.Size()), len(pairs)
	}
	wnpPC, wnpN := detect(WNP)
	cepPC, cepN := detect(CEP)
	if wnpPC < 0.9 {
		t.Errorf("WNP recall %.3f too low", wnpPC)
	}
	if cepN >= wnpN {
		t.Errorf("CEP (%d) should retain fewer comparisons than WNP (%d)", cepN, wnpN)
	}
	if cepPC > wnpPC {
		t.Errorf("CEP recall %.3f should not exceed WNP's %.3f", cepPC, wnpPC)
	}
}

// topKSets derives every node's top-k edge set straight from the
// ForEachNode data with a plain sort under the heap's total order (weight
// descending, ties on the lexicographically smaller canonical pair) — an
// independent restatement of what edgeHeap selects.
func topKSets(g *Graph, k int) map[entity.ID]map[entity.Pair]bool {
	top := make(map[entity.ID]map[entity.Pair]bool)
	g.ForEachNode(func(i entity.ID, neighbors []entity.ID, weights []float64) {
		type ranked struct {
			p entity.Pair
			w float64
		}
		edges := make([]ranked, len(neighbors))
		for n, j := range neighbors {
			edges[n] = ranked{p: entity.MakePair(i, j), w: weights[n]}
		}
		sort.Slice(edges, func(a, b int) bool {
			if edges[a].w != edges[b].w {
				return edges[a].w > edges[b].w
			}
			if edges[a].p.A != edges[b].p.A {
				return edges[a].p.A < edges[b].p.A
			}
			return edges[a].p.B < edges[b].p.B
		})
		if k < len(edges) {
			edges = edges[:k]
		}
		set := make(map[entity.Pair]bool, len(edges))
		for _, e := range edges {
			set[e.p] = true
		}
		top[i] = set
	})
	return top
}

// TestReciprocalCNPSerialSemantics pins the serial path to the §5.2
// definition on random Dirty and Clean-Clean inputs: a comparison survives
// Reciprocal CNP iff BOTH endpoints rank the edge in their top-k, and
// Redefined CNP iff EITHER does — each retained exactly once.
func TestReciprocalCNPSerialSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 4; trial++ {
		for _, c := range []*struct {
			name   string
			blocks func() *block.Collection
		}{
			{"dirty", func() *block.Collection { return randomDirtyBlocks(rng, 40, 30) }},
			{"clean", func() *block.Collection { return randomCleanBlocks(rng, 18, 40, 30) }},
		} {
			blocks := c.blocks()
			for _, scheme := range AllSchemes {
				g := NewGraph(blocks, scheme)
				top := topKSets(g, g.CardinalityNodeThreshold())
				var wantRecip, wantRedef []entity.Pair
				g.ForEachEdge(func(i, j entity.ID, _ float64) {
					p := entity.MakePair(i, j)
					if top[i][p] && top[j][p] {
						wantRecip = append(wantRecip, p)
					}
					if top[i][p] || top[j][p] {
						wantRedef = append(wantRedef, p)
					}
				})
				if got := sortedDistinct(g.Prune(ReciprocalCNP)); !reflect.DeepEqual(got, sortedDistinct(wantRecip)) {
					t.Fatalf("%s/%v: Reciprocal CNP = %v, want %v", c.name, scheme, got, sortedDistinct(wantRecip))
				}
				if got := sortedDistinct(g.Prune(RedefinedCNP)); !reflect.DeepEqual(got, sortedDistinct(wantRedef)) {
					t.Fatalf("%s/%v: Redefined CNP = %v, want %v", c.name, scheme, got, sortedDistinct(wantRedef))
				}
			}
		}
	}
}

// TestRedefinedWNPSerialSemantics pins the serial path to the Algorithm 5
// definition on random Dirty and Clean-Clean inputs: with every
// neighborhood's mean weight as its threshold, Redefined WNP retains an
// edge (once) iff it meets either endpoint's threshold, Reciprocal WNP iff
// it meets both.
func TestRedefinedWNPSerialSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 4; trial++ {
		for _, c := range []*struct {
			name   string
			blocks func() *block.Collection
		}{
			{"dirty", func() *block.Collection { return randomDirtyBlocks(rng, 40, 30) }},
			{"clean", func() *block.Collection { return randomCleanBlocks(rng, 18, 40, 30) }},
		} {
			blocks := c.blocks()
			for _, scheme := range AllSchemes {
				g := NewGraph(blocks, scheme)
				thresholds := make(map[entity.ID]float64)
				g.ForEachNode(func(i entity.ID, _ []entity.ID, weights []float64) {
					thresholds[i] = g.meanOf(weights)
				})
				var wantRedef, wantRecip []entity.Pair
				g.ForEachEdge(func(i, j entity.ID, w float64) {
					p := entity.MakePair(i, j)
					okI, okJ := w >= thresholds[i], w >= thresholds[j]
					if okI || okJ {
						wantRedef = append(wantRedef, p)
					}
					if okI && okJ {
						wantRecip = append(wantRecip, p)
					}
				})
				if got := sortedDistinct(g.Prune(RedefinedWNP)); !reflect.DeepEqual(got, sortedDistinct(wantRedef)) {
					t.Fatalf("%s/%v: Redefined WNP = %v, want %v", c.name, scheme, got, sortedDistinct(wantRedef))
				}
				if got := sortedDistinct(g.Prune(ReciprocalWNP)); !reflect.DeepEqual(got, sortedDistinct(wantRecip)) {
					t.Fatalf("%s/%v: Reciprocal WNP = %v, want %v", c.name, scheme, got, sortedDistinct(wantRecip))
				}
			}
		}
	}
}

// TestSerialPruneDeterministic: two serial calls on fresh graphs return the
// same slice, element for element, for every algorithm, scheme and task
// type — every result is in canonical (A, B) order, not map-iteration order.
func TestSerialPruneDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for name, blocks := range map[string]*block.Collection{
		"dirty": randomDirtyBlocks(rng, 60, 50),
		"clean": randomCleanBlocks(rng, 25, 60, 50),
	} {
		for _, scheme := range AllSchemes {
			for _, alg := range AllAlgorithms {
				first := NewGraph(blocks, scheme).Prune(alg)
				if len(first) == 0 {
					t.Fatalf("%s/%v/%v: nothing retained", name, scheme, alg)
				}
				for run := 0; run < 3; run++ {
					if again := NewGraph(blocks, scheme).Prune(alg); !reflect.DeepEqual(again, first) {
						t.Fatalf("%s/%v/%v: serial Prune returned a different order on run %d", name, scheme, alg, run+2)
					}
				}
			}
		}
	}
}

// TestPruneEmptyCollection: a collection with no entity and no block prunes
// to nothing under every algorithm, serial and parallel — the cardinality
// thresholds must not divide by |E| = 0.
func TestPruneEmptyCollection(t *testing.T) {
	for _, task := range []entity.Task{entity.Dirty, entity.CleanClean} {
		for _, alg := range AllAlgorithms {
			empty := &block.Collection{Task: task}
			if got := NewGraph(empty, CBS).Prune(alg); len(got) != 0 {
				t.Errorf("%v/%v: Prune retained %d comparisons from an empty collection", task, alg, len(got))
			}
			if got := NewGraph(empty, CBS).PruneParallel(alg, 2); len(got) != 0 {
				t.Errorf("%v/%v: PruneParallel retained %d comparisons from an empty collection", task, alg, len(got))
			}
		}
	}
	if k := NewGraph(&block.Collection{}, CBS).CardinalityNodeThreshold(); k != 1 {
		t.Errorf("empty collection: k = %d, want 1", k)
	}
}
