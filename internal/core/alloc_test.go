package core

import (
	"math/rand"
	"testing"

	"metablocking/internal/entity"
)

// TestNodeTraversalAllocFree pins the hot-path allocation contract of the
// neighbor-aggregation inner loop (ScanCount + weighting, Algorithm 3):
// after one warm-up traversal grows the scratch, ForEachNode and
// ForEachEdge allocate nothing per pass, flat or compressed.
func TestNodeTraversalAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	c := randomDirtyBlocks(rng, 60, 50)
	for _, compressed := range []bool{false, true} {
		name := "flat"
		if compressed {
			name = "compressed"
		}
		t.Run(name, func(t *testing.T) {
			g := NewGraph(c, CBS)
			if compressed {
				g.CompressIndex()
			}
			nodeSink := 0
			node := func(i entity.ID, neighbors []entity.ID, weights []float64) {
				nodeSink += len(neighbors)
			}
			edgeSink := 0
			edge := func(i, j entity.ID, w float64) { edgeSink++ }
			g.ForEachNode(node) // warm-up: grows cells/neighbors/weights scratch
			g.ForEachEdge(edge)
			if avg := testing.AllocsPerRun(5, func() { g.ForEachNode(node) }); avg != 0 {
				t.Errorf("ForEachNode allocated %.1f times per warm pass, want 0", avg)
			}
			if avg := testing.AllocsPerRun(5, func() { g.ForEachEdge(edge) }); avg != 0 {
				t.Errorf("ForEachEdge allocated %.1f times per warm pass, want 0", avg)
			}
			if nodeSink == 0 || edgeSink == 0 {
				t.Fatal("traversals visited nothing")
			}
		})
	}
}

// TestSinglePassWNPAllocs pins the allocation profile of the single-pass
// Reciprocal WNP: a warm call allocates its thresholds, its bucket and its
// result — the bucket by append's geometric growth — and nothing per
// node, so a graph of four times the nodes may cost a few growth steps
// more, not hundreds of allocations.
func TestSinglePassWNPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under the race detector")
	}
	allocs := func(nodes int) float64 {
		rng := rand.New(rand.NewSource(5))
		g := NewGraph(randomDirtyBlocks(rng, nodes, nodes), CBS)
		if len(g.PruneParallel(ReciprocalWNP, 1)) < nodes/2 { // warm-up: grows the scan scratch
			t.Fatalf("%d nodes: too few pairs retained to tell per-node allocations", nodes)
		}
		return testing.AllocsPerRun(5, func() { g.PruneParallel(ReciprocalWNP, 1) })
	}
	small, large := allocs(100), allocs(400)
	if small > 16 {
		t.Errorf("100 nodes: %.0f allocations per warm call, want at most 16", small)
	}
	if large > small+10 {
		t.Errorf("400 nodes: %.0f allocations per warm call against %.0f for 100 nodes: growing with the node count", large, small)
	}
}
