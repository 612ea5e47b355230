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

// TestSinglePassWNPAllocs pins the allocation profile of the node-centric
// pass, weight- and cardinality-based, parallel and serial: a warm call
// allocates its thresholds, its top-k heap, its bucket and its result —
// bucket and serial result by append's geometric growth — and nothing per
// node, so a graph of four times the nodes may cost a few growth steps
// more, not hundreds of allocations.
func TestSinglePassWNPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under the race detector")
	}
	for _, alg := range []Algorithm{ReciprocalWNP, ReciprocalCNP} {
		for name, prune := range map[string]func(g *Graph) []entity.Pair{
			"PruneParallel(1)": func(g *Graph) []entity.Pair { return g.PruneParallel(alg, 1) },
			"Prune":            func(g *Graph) []entity.Pair { return g.Prune(alg) },
		} {
			allocs := func(nodes int) float64 {
				rng := rand.New(rand.NewSource(5))
				g := NewGraph(randomDirtyBlocks(rng, nodes, nodes), CBS)
				if len(prune(g)) < nodes/4 { // warm-up: grows the scan scratch
					t.Fatalf("%v %s, %d nodes: too few pairs retained to tell per-node allocations", alg, name, nodes)
				}
				return testing.AllocsPerRun(5, func() { prune(g) })
			}
			small, large := allocs(100), allocs(400)
			if small > 16 {
				t.Errorf("%v %s, 100 nodes: %.0f allocations per warm call, want at most 16", alg, name, small)
			}
			if large > small+10 {
				t.Errorf("%v %s, 400 nodes: %.0f allocations per warm call against %.0f for 100 nodes: growing with the node count", alg, name, large, small)
			}
		}
	}
}
