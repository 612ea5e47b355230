package oracle

import (
	"math"
	"math/rand"
	"testing"

	"metablocking/internal/block"
	"metablocking/internal/blocking"
	"metablocking/internal/core"
	"metablocking/internal/entity"
	"metablocking/internal/paperexample"
)

// exampleBlocks builds the paper's running example (Figure 1(b)).
func exampleBlocks(t *testing.T) *Graph {
	t.Helper()
	blocks := blocking.TokenBlocking{}.Build(paperexample.Collection())
	return NewGraph(blocks, core.JS)
}

// TestOracleJSWeightsPaperExample anchors the oracle itself to the
// hand-computed Jaccard graph of Figure 2(a) — the oracle validates the
// production code, and the paper validates the oracle.
func TestOracleJSWeightsPaperExample(t *testing.T) {
	g := exampleBlocks(t)
	want := paperexample.JSWeights()
	if len(g.Weights) != len(want) {
		t.Fatalf("|EB| = %d, want %d", len(g.Weights), len(want))
	}
	for p, w := range want {
		if math.Abs(g.Weights[p]-w) > 1e-12 {
			t.Errorf("edge %v = %v, want %v", p, g.Weights[p], w)
		}
	}
}

// TestOraclePrunePaperExample anchors every oracle pruning algorithm to
// the worked example's published outcomes (Figures 5, 8, 9 and the §3
// thresholds).
func TestOraclePrunePaperExample(t *testing.T) {
	g := exampleBlocks(t)
	if K := CardinalityEdgeThreshold(g.c); K != 9 {
		t.Fatalf("K = %d, want 9", K)
	}
	if k := CardinalityNodeThreshold(g.c); k != 2 {
		t.Fatalf("k = %d, want 2", k)
	}
	counts := map[core.Algorithm]int{
		core.CEP:           9,  // all but the lightest edge p3-p4
		core.WEP:           4,  // exact mean keeps 4 of 10
		core.CNP:           12, // directed comparisons, duplicates included
		core.RedefinedCNP:  7,
		core.ReciprocalCNP: 5,
		core.WNP:           9, // Figure 5(b)
		core.RedefinedWNP:  5, // Figure 8(b)
		core.ReciprocalWNP: 4, // Figure 9(b)
	}
	for alg, want := range counts {
		if got := len(g.Prune(alg)); got != want {
			t.Errorf("%v retained %d comparisons, want %d", alg, got, want)
		}
	}
	dropped := entity.MakePair(paperexample.P3, paperexample.P4)
	for _, p := range g.Prune(core.CEP) {
		if p == dropped {
			t.Errorf("CEP kept the lightest edge %v", dropped)
		}
	}
}

// TestOracleEmptyAndSingletonBlocks: comparison-free blocks contribute no
// edges but do count toward |B|, Σ|b| and |Bi| — the weight formulas and
// cardinality thresholds must see them.
func TestOracleEmptyAndSingletonBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := Random(rng, GenConfig{Entities: 20, Blocks: 10, MaxBlockSize: 4, EmptyBlocks: 3, SingletonBlocks: 4})
	if c.Len() != 17 {
		t.Fatalf("got %d blocks, want 17", c.Len())
	}
	g := NewGraph(c, core.ECBS)
	for p, w := range g.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			t.Fatalf("edge %v has invalid weight %v", p, w)
		}
	}
	// Pruning still runs on collections whose blocks are all
	// comparison-free.
	empty := Random(rng, GenConfig{Entities: 5, Blocks: 0, MaxBlockSize: 2, EmptyBlocks: 2, SingletonBlocks: 2})
	for _, alg := range core.AllAlgorithms {
		if got := Prune(empty, core.JS, alg); len(got) != 0 {
			t.Fatalf("%v retained %d comparisons from a comparison-free collection", alg, len(got))
		}
		// No entity at all: the cardinality thresholds must not divide by
		// |E| = 0.
		if got := Prune(&block.Collection{}, core.JS, alg); len(got) != 0 {
			t.Fatalf("%v retained %d comparisons from an empty collection", alg, len(got))
		}
	}
}

// TestRandomShape: the generator keeps the structural promises the
// production code relies on (distinct keys, sorted distinct members,
// Clean-Clean blocks crossing the split).
func TestRandomShape(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, clean := range []bool{false, true} {
		cfg := GenConfig{Entities: 40, Blocks: 30, MaxBlockSize: 5, EmptyBlocks: 2, SingletonBlocks: 3}
		if clean {
			cfg.Split = 15
		}
		c := Random(rng, cfg)
		keys := make(map[string]bool)
		for i := range c.Blocks {
			b := &c.Blocks[i]
			if keys[b.Key] {
				t.Fatalf("duplicate block key %q", b.Key)
			}
			keys[b.Key] = true
			for _, side := range [][]entity.ID{b.E1, b.E2} {
				for n := 1; n < len(side); n++ {
					if side[n-1] >= side[n] {
						t.Fatalf("block %q side not sorted-distinct: %v", b.Key, side)
					}
				}
			}
			if clean {
				for _, id := range b.E1 {
					if int(id) >= c.Split {
						t.Fatalf("E1 member %d at/after split %d", id, c.Split)
					}
				}
				for _, id := range b.E2 {
					if int(id) < c.Split {
						t.Fatalf("E2 member %d before split %d", id, c.Split)
					}
				}
			}
		}
	}
}

// TestRandomSeedDeterminism: the generator is a pure function of the rng
// seed.
func TestRandomSeedDeterminism(t *testing.T) {
	cfg := GenConfig{Entities: 30, Blocks: 20, MaxBlockSize: 4, Split: 12, EmptyBlocks: 1, SingletonBlocks: 2}
	a := Random(rand.New(rand.NewSource(5)), cfg)
	b := Random(rand.New(rand.NewSource(5)), cfg)
	if err := CheckFiltering(a, 1.0); err != nil { // cheap structural sanity
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("same seed, different block counts: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Blocks {
		x, y := &a.Blocks[i], &b.Blocks[i]
		if x.Key != y.Key || !sameIDs(x.E1, y.E1) || !sameIDs(x.E2, y.E2) {
			t.Fatalf("same seed, block %d differs", i)
		}
	}
}

// TestFromBytesTotal: every byte string decodes into either nil or a
// collection the full checker accepts structurally (this is the fuzz
// targets' precondition).
func TestFromBytesTotal(t *testing.T) {
	inputs := [][]byte{
		nil, {}, {0}, {0, 0}, {255, 255}, {3, 1, 7, 1, 2, 3, 4, 5, 6, 7},
		{13, 9, 0, 2, 200, 100, 5, 1, 2, 3, 4, 5},
	}
	for _, clean := range []bool{false, true} {
		for _, in := range inputs {
			c := FromBytes(in, clean)
			if c == nil {
				continue
			}
			if c.NumEntities < 2 {
				t.Fatalf("FromBytes(%v) produced %d entities", in, c.NumEntities)
			}
			if clean && (c.Split <= 0 || c.Split >= c.NumEntities) {
				t.Fatalf("FromBytes(%v) produced invalid split %d/%d", in, c.Split, c.NumEntities)
			}
			NewGraph(c, core.EJS) // must not panic
		}
	}
}
