package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"metablocking/internal/block"
	"metablocking/internal/blocking"
	"metablocking/internal/datagen"
	"metablocking/internal/entity"
	"metablocking/internal/paperexample"
)

// exampleGraph builds the blocking graph of the paper's running example.
func exampleGraph(t *testing.T, scheme Scheme) *Graph {
	t.Helper()
	blocks := blocking.TokenBlocking{}.Build(paperexample.Collection())
	return NewGraph(blocks, scheme)
}

// edgeSet collects all edges of a traversal into a map.
func edgeSet(traverse func(func(i, j entity.ID, w float64))) map[entity.Pair]float64 {
	out := make(map[entity.Pair]float64)
	traverse(func(i, j entity.ID, w float64) {
		out[entity.MakePair(i, j)] = w
	})
	return out
}

// TestJSWeightsPaperExample verifies the blocking graph of Figure 2(a):
// ten edges with the exact Jaccard weights printed in the figure.
func TestJSWeightsPaperExample(t *testing.T) {
	g := exampleGraph(t, JS)
	got := edgeSet(g.ForEachEdge)
	want := paperexample.JSWeights()
	if len(got) != len(want) {
		t.Fatalf("|EB| = %d, want %d", len(got), len(want))
	}
	for p, w := range want {
		gw, ok := got[p]
		if !ok {
			t.Errorf("edge %v missing", p)
			continue
		}
		if math.Abs(gw-w) > 1e-12 {
			t.Errorf("edge %v weight = %v, want %v", p, gw, w)
		}
	}
}

// TestOriginalWeightingPaperExample verifies that Algorithm 2 derives the
// same graph.
func TestOriginalWeightingPaperExample(t *testing.T) {
	g := exampleGraph(t, JS)
	got := edgeSet(g.ForEachEdgeOriginal)
	for p, w := range paperexample.JSWeights() {
		if math.Abs(got[p]-w) > 1e-12 {
			t.Errorf("edge %v weight = %v, want %v", p, got[p], w)
		}
	}
	if len(got) != 10 {
		t.Fatalf("|EB| = %d, want 10", len(got))
	}
}

// TestSchemeWeightsHandComputed checks one representative edge per scheme
// against hand-derived values on the paper example.
func TestSchemeWeightsHandComputed(t *testing.T) {
	p13 := entity.MakePair(paperexample.P1, paperexample.P3)
	p34 := entity.MakePair(paperexample.P3, paperexample.P4)
	p35 := entity.MakePair(paperexample.P3, paperexample.P5)

	// CBS: raw shared-block counts.
	cbs := edgeSet(exampleGraph(t, CBS).ForEachEdge)
	if cbs[p13] != 2 || cbs[p34] != 1 {
		t.Errorf("CBS: got %v and %v, want 2 and 1", cbs[p13], cbs[p34])
	}

	// ARCS: Σ 1/‖b‖ — jack and miller have 1 comparison each; car has 6.
	arcs := edgeSet(exampleGraph(t, ARCS).ForEachEdge)
	if math.Abs(arcs[p13]-2) > 1e-12 {
		t.Errorf("ARCS(p1,p3) = %v, want 2", arcs[p13])
	}
	if math.Abs(arcs[p34]-1.0/6) > 1e-12 {
		t.Errorf("ARCS(p3,p4) = %v, want 1/6", arcs[p34])
	}
	if math.Abs(arcs[p35]-(1+1.0/6)) > 1e-12 {
		t.Errorf("ARCS(p3,p5) = %v, want 7/6", arcs[p35])
	}

	// ECBS: CBS·log(|B|/|Bi|)·log(|B|/|Bj|) with |B|=8, |B1|=3, |B3|=5.
	ecbs := edgeSet(exampleGraph(t, ECBS).ForEachEdge)
	want := 2 * math.Log(8.0/3) * math.Log(8.0/5)
	if math.Abs(ecbs[p13]-want) > 1e-12 {
		t.Errorf("ECBS(p1,p3) = %v, want %v", ecbs[p13], want)
	}

	// EJS: JS·log(|VB|/|vi|)·log(|VB|/|vj|) with |VB|=6, deg(v1)=2,
	// deg(v3)=5.
	ejs := edgeSet(exampleGraph(t, EJS).ForEachEdge)
	want = (2.0 / 6) * math.Log(6.0/2) * math.Log(6.0/5)
	if math.Abs(ejs[p13]-want) > 1e-12 {
		t.Errorf("EJS(p1,p3) = %v, want %v", ejs[p13], want)
	}
}

func TestGraphOrderAndSize(t *testing.T) {
	g := exampleGraph(t, JS)
	if g.NumNodes() != 6 {
		t.Errorf("|VB| = %d, want 6", g.NumNodes())
	}
	if g.NumEdges() != 10 {
		t.Errorf("|EB| = %d, want 10", g.NumEdges())
	}
	if g.Scheme() != JS {
		t.Errorf("Scheme = %v", g.Scheme())
	}
}

// TestForEachNodeVisitsEveryEdgeTwice checks the node-centric traversal
// sees each edge from both endpoints with equal weights.
func TestForEachNodeVisitsEveryEdgeTwice(t *testing.T) {
	g := exampleGraph(t, JS)
	counts := make(map[entity.Pair]int)
	weights := make(map[entity.Pair][]float64)
	g.ForEachNode(func(i entity.ID, neighbors []entity.ID, ws []float64) {
		for n, j := range neighbors {
			p := entity.MakePair(i, j)
			counts[p]++
			weights[p] = append(weights[p], ws[n])
		}
	})
	if len(counts) != 10 {
		t.Fatalf("distinct edges = %d, want 10", len(counts))
	}
	for p, n := range counts {
		if n != 2 {
			t.Errorf("edge %v visited %d times, want 2", p, n)
		}
		ws := weights[p]
		if len(ws) == 2 && math.Abs(ws[0]-ws[1]) > 1e-12 {
			t.Errorf("edge %v weights differ across endpoints: %v", p, ws)
		}
	}
}

// TestOptimizedMatchesOriginal is the key equivalence property (paper
// §4.2): Algorithms 2 and 3 must produce identical edge sets and
// bit-identical weights, for every scheme, on random Dirty and Clean-Clean
// collections.
func TestOptimizedMatchesOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		collections := []*block.Collection{
			randomDirtyBlocks(rng, 40, 30),
			randomCleanBlocks(rng, 15, 40, 30),
		}
		for _, c := range collections {
			for _, scheme := range AllSchemes {
				g := NewGraph(c, scheme)
				opt := edgeSet(g.ForEachEdge)
				orig := edgeSet(g.ForEachEdgeOriginal)
				if len(opt) != len(orig) {
					t.Fatalf("trial %d %v %v: %d vs %d edges",
						trial, c.Task, scheme, len(opt), len(orig))
				}
				for p, w := range opt {
					ow, ok := orig[p]
					if !ok {
						t.Fatalf("trial %d %v %v: edge %v only in optimized", trial, c.Task, scheme, p)
					}
					if math.Float64bits(w) != math.Float64bits(ow) {
						t.Fatalf("trial %d %v %v: edge %v weight %v vs %v",
							trial, c.Task, scheme, p, w, ow)
					}
				}
			}
		}
	}
}

// TestNodeTraversalsAgree checks ForEachNode yields the same neighborhoods
// and bit-identical weights with Optimized and with Original Edge Weighting.
func TestNodeTraversalsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomDirtyBlocks(rng, 30, 25)
	for _, scheme := range AllSchemes {
		g, gOrig := NewGraph(c, scheme), NewGraph(c, scheme)
		gOrig.OriginalWeighting = true
		type hood map[entity.ID]float64
		collect := func(traverse func(func(entity.ID, []entity.ID, []float64))) map[entity.ID]hood {
			out := make(map[entity.ID]hood)
			traverse(func(i entity.ID, neighbors []entity.ID, ws []float64) {
				h := make(hood, len(neighbors))
				for n, j := range neighbors {
					h[j] = ws[n]
				}
				out[i] = h
			})
			return out
		}
		opt := collect(g.ForEachNode)
		orig := collect(gOrig.ForEachNode)
		if len(opt) != len(orig) {
			t.Fatalf("%v: node counts differ: %d vs %d", scheme, len(opt), len(orig))
		}
		for i, h := range opt {
			oh := orig[i]
			if len(h) != len(oh) {
				t.Fatalf("%v node %d: neighborhood sizes differ", scheme, i)
			}
			for j, w := range h {
				if math.Float64bits(w) != math.Float64bits(oh[j]) {
					t.Fatalf("%v edge %d-%d: %v vs %v", scheme, i, j, w, oh[j])
				}
			}
		}
	}
}

// TestCleanCleanGraphCrossesSplitOnly ensures no intra-source edges exist.
func TestCleanCleanGraphCrossesSplitOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomCleanBlocks(rng, 10, 30, 20)
	g := NewGraph(c, CBS)
	g.ForEachEdge(func(i, j entity.ID, _ float64) {
		if c.InFirst(i) == c.InFirst(j) {
			t.Fatalf("edge %d-%d does not cross the split", i, j)
		}
	})
}

// --- random collection helpers ---

func randomDirtyBlocks(rng *rand.Rand, numEntities, numBlocks int) *block.Collection {
	c := &block.Collection{Task: entity.Dirty, NumEntities: numEntities, Split: numEntities}
	for b := 0; b < numBlocks; b++ {
		members := sampleIDs(rng, 0, numEntities, 2+rng.Intn(5))
		c.Blocks = append(c.Blocks, block.Block{Key: key(b), E1: members})
	}
	return c
}

func randomCleanBlocks(rng *rand.Rand, split, numEntities, numBlocks int) *block.Collection {
	c := &block.Collection{Task: entity.CleanClean, NumEntities: numEntities, Split: split}
	for b := 0; b < numBlocks; b++ {
		e1 := sampleIDs(rng, 0, split, 1+rng.Intn(3))
		e2 := sampleIDs(rng, split, numEntities, 1+rng.Intn(3))
		c.Blocks = append(c.Blocks, block.Block{Key: key(b), E1: e1, E2: e2})
	}
	return c
}

func sampleIDs(rng *rand.Rand, lo, hi, n int) []entity.ID {
	seen := make(map[entity.ID]struct{})
	var out []entity.ID
	for len(out) < n && len(out) < hi-lo {
		id := entity.ID(lo + rng.Intn(hi-lo))
		if _, ok := seen[id]; ok {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func key(b int) string { return "k" + string(rune('0'+b%10)) + string(rune('a'+b/10)) }

// datagenD1C returns a small Clean-Clean synthetic dataset for
// integration-style core tests.
func datagenD1C() datagen.Dataset { return datagen.D1C(0.05) }
