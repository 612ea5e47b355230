package core

import (
	"math/rand"
	"testing"

	"metablocking/internal/entity"
)

// TestNodeTraversalAllocFree pins the hot-path allocation contract of the
// neighbor-aggregation inner loop (scanNeighborhood + fillWeights), for
// every scheme: after one warm-up traversal grows the scratch, ForEachNode
// and ForEachEdge allocate nothing per pass over the flat Entity Index —
// under Optimized Edge Weighting (Alg. 3) and under the Original one
// (Alg. 2), ForEachEdgeOriginal's one-edge weighing included.
func TestNodeTraversalAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	c := randomDirtyBlocks(rng, 60, 50)
	t.Run("flat", func(t *testing.T) {
		for _, scheme := range AllSchemes {
			g, gOrig := NewGraph(c, scheme), NewGraph(c, scheme)
			gOrig.OriginalWeighting = true
			sink := 0
			node := func(i entity.ID, neighbors []entity.ID, weights []float64) {
				sink += len(neighbors)
			}
			edge := func(i, j entity.ID, w float64) { sink++ }
			for _, tr := range []struct {
				name string
				pass func()
			}{
				{"ForEachNode", func() { g.ForEachNode(node) }},
				{"ForEachEdge", func() { g.ForEachEdge(edge) }},
				{"original ForEachNode", func() { gOrig.ForEachNode(node) }},
				{"ForEachEdgeOriginal", func() { gOrig.ForEachEdgeOriginal(edge) }},
			} {
				sink = 0
				tr.pass() // warm-up: grows cells/neighbors/weights scratch
				if sink == 0 {
					t.Fatalf("%v %s visited nothing", scheme, tr.name)
				}
				if avg := testing.AllocsPerRun(5, tr.pass); avg != 0 {
					t.Errorf("%v %s allocated %.1f times per warm pass, want 0", scheme, tr.name, avg)
				}
			}
		}
	})
}

// TestSinglePassWNPAllocs pins the allocation profile of the node-centric
// pass, weight- and cardinality-based, on one worker and two: a warm call
// allocates its thresholds, its top-k heap, its bucket and its result —
// the bucket by append's geometric growth — and nothing per node, so a graph of four times the nodes may cost a few growth steps
// more, not hundreds of allocations. At two workers the same holds per
// range — a goroutine, a shard, a heap and a bucket for each of the
// nodeBands × 2 — so sixteen times the nodes must cost less than one
// allocation per added node by a wide margin.
func TestSinglePassWNPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under the race detector")
	}
	const ranges = nodeBands * 2
	for _, alg := range []Algorithm{ReciprocalWNP, ReciprocalCNP} {
		for _, c := range []struct {
			name               string
			prune              func(g *Graph) []entity.Pair
			small, large       int // node counts
			atSmall, forGrowth float64
		}{
			{"PruneParallel(1)", func(g *Graph) []entity.Pair { return g.PruneParallel(alg, 1) }, 100, 400, 16, 10},
			{"PruneParallel(2)", func(g *Graph) []entity.Pair { return g.PruneParallel(alg, 2) }, 100, 1600, 16 + 12*ranges, 16 * ranges},
		} {
			allocs := func(nodes int) float64 {
				rng := rand.New(rand.NewSource(5))
				g := NewGraph(randomDirtyBlocks(rng, nodes, nodes), CBS)
				if len(c.prune(g)) < nodes/4 { // warm-up: grows the scan scratch
					t.Fatalf("%v %s, %d nodes: too few pairs retained to tell per-node allocations", alg, c.name, nodes)
				}
				return testing.AllocsPerRun(5, func() { c.prune(g) })
			}
			small, large := allocs(c.small), allocs(c.large)
			if small > c.atSmall {
				t.Errorf("%v %s, %d nodes: %.0f allocations per warm call, want at most %.0f", alg, c.name, c.small, small, c.atSmall)
			}
			if large > small+c.forGrowth {
				t.Errorf("%v %s, %d nodes: %.0f allocations per warm call against %.0f for %d nodes: growing with the node count",
					alg, c.name, c.large, large, small, c.small)
			}
		}
	}
}
