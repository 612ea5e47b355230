package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"metablocking/internal/block"
	"metablocking/internal/entity"
	"metablocking/internal/par"
)

// nodeCentricFamilies lists the six node-centric algorithms.
var nodeCentricFamilies = []Algorithm{CNP, RedefinedCNP, ReciprocalCNP, WNP, RedefinedWNP, ReciprocalWNP}

// endpointVerdicts returns, for every edge of g, whether each endpoint's
// criterion admits it, derived apart from the production pass: the
// cardinality-based family from topKSets (a plain sort per neighborhood),
// the weight-based one from a node-centric pass for the neighborhood means
// — the first pass of Algorithms 4/5 as the paper states them.
func endpointVerdicts(g *Graph, alg Algorithm) func(i, j entity.ID, w float64) (okI, okJ bool) {
	switch alg {
	case CNP, RedefinedCNP, ReciprocalCNP:
		top := topKSets(g, g.CardinalityNodeThreshold())
		return func(i, j entity.ID, _ float64) (bool, bool) {
			p := entity.MakePair(i, j)
			return top[i][p], top[j][p]
		}
	}
	thresholds := make([]float64, g.blocks.NumEntities)
	g.ForEachNode(func(i entity.ID, _ []entity.ID, weights []float64) {
		thresholds[i] = g.meanOf(weights)
	})
	return func(i, j entity.ID, w float64) (bool, bool) {
		return w >= thresholds[i], w >= thresholds[j]
	}
}

// referenceCopies is the number of comparisons an edge yields: one per
// admitting endpoint (originals), one if either admits (Redefined), one if
// both do (Reciprocal).
func referenceCopies(alg Algorithm, okI, okJ bool) int {
	votes := 0
	for _, ok := range []bool{okI, okJ} {
		if ok {
			votes++
		}
	}
	switch alg {
	case CNP, WNP:
		return votes
	case RedefinedCNP, RedefinedWNP:
		return min(votes, 1)
	}
	return votes / 2
}

// twoPassWNP is Algorithms 4 and 5 as the paper states them and as this
// package implemented Alg. 5 before the single-pass form: a node-centric
// pass for the per-node criteria, then an edge-centric pass testing every
// edge against both, in canonical order. It is the reference the single
// pass must reproduce element for element.
func twoPassWNP(g *Graph, alg Algorithm) []entity.Pair {
	verdicts := endpointVerdicts(g, alg)
	out := []entity.Pair{}
	g.ForEachEdge(func(i, j entity.ID, w float64) {
		okI, okJ := verdicts(i, j, w)
		for c := referenceCopies(alg, okI, okJ); c > 0; c-- {
			out = append(out, entity.MakePair(i, j))
		}
	})
	sortPairs(out)
	return out
}

// dirtyOf builds a Dirty collection from explicit member lists.
func dirtyOf(numEntities int, blocks ...[]entity.ID) *block.Collection {
	c := &block.Collection{Task: entity.Dirty, NumEntities: numEntities, Split: numEntities}
	for b, members := range blocks {
		c.Blocks = append(c.Blocks, block.Block{Key: key(b), E1: members})
	}
	return c
}

// crossingBlocks returns two-member blocks, one member from each half of
// the ID space, with repeats — so weights vary and, at two workers, every
// edge has its endpoints in different ranges.
func crossingBlocks(rng *rand.Rand, numEntities, numBlocks int) *block.Collection {
	half := numEntities / 2
	var blocks [][]entity.ID
	for b := 0; b < numBlocks; b++ {
		blocks = append(blocks, []entity.ID{entity.ID(rng.Intn(half/3 + 1)), entity.ID(half + rng.Intn(half/3+1))})
		blocks = append(blocks, []entity.ID{entity.ID(rng.Intn(half)), entity.ID(half + rng.Intn(half))})
	}
	return dirtyOf(numEntities, blocks...)
}

// wnpInputs are the random collections of the equivalence table plus the
// shapes built to break a single-pass decision.
func wnpInputs() map[string]*block.Collection {
	rng := rand.New(rand.NewSource(53))
	inputs := map[string]*block.Collection{
		"dirty":       randomDirtyBlocks(rng, 60, 50),
		"dirty-dense": randomDirtyBlocks(rng, 24, 90),
		"clean":       randomCleanBlocks(rng, 25, 60, 50),
		"clean-skew":  randomCleanBlocks(rng, 5, 40, 60),
		"crossing":    crossingBlocks(rng, 40, 120),
	}

	// Every weight equals every threshold: one block holding everyone
	// (Dirty) or everyone on both sides (Clean-Clean). Only >= retains.
	all := make([]entity.ID, 30)
	for i := range all {
		all[i] = entity.ID(i)
	}
	inputs["tied-dirty"] = dirtyOf(30, all)
	inputs["tied-clean"] = &block.Collection{Task: entity.CleanClean, NumEntities: 30, Split: 12,
		Blocks: []block.Block{{Key: "all", E1: all[:12], E2: all[12:]}}}

	// A star: one hub in every block, at the bottom, the middle and the top
	// of the ID space, so it is the first, a middle and the last node a
	// descending scan meets.
	for _, hub := range []entity.ID{0, 17, 39} {
		var blocks [][]entity.ID
		for b := 0; b < 45; b++ {
			members := sampleIDs(rng, 0, 40, 1+rng.Intn(4))
			if !slices.Contains(members, hub) {
				members = append(members, hub)
				slices.Sort(members)
			}
			blocks = append(blocks, members)
		}
		inputs[fmt.Sprintf("star-%d", hub)] = dirtyOf(40, blocks...)
	}

	// IDs 20..39 appear in no block: at three workers one whole range is
	// empty, at more several are.
	gap := randomDirtyBlocks(rng, 40, 45)
	gap.NumEntities, gap.Split = 60, 60
	for b := range gap.Blocks {
		for m, id := range gap.Blocks[b].E1 {
			if id >= 20 {
				gap.Blocks[b].E1[m] = id + 20
			}
		}
	}
	inputs["gap"] = gap

	// A ring whose every edge repeats in several blocks: each node has two
	// neighbors and k = ⌊Σ|b|/|E|⌋−1 = 3, so no neighborhood fills the
	// cardinality criterion and it must admit every edge.
	var ring [][]entity.ID
	for i := 0; i < 12; i++ {
		members := []entity.ID{entity.ID(i), entity.ID((i + 1) % 12)}
		slices.Sort(members)
		for r := 0; r < 2+i%2; r++ {
			ring = append(ring, members)
		}
	}
	inputs["k-covers-all"] = dirtyOf(12, ring...)

	// The shapes a cost-balanced split exists for, drawn from their own
	// source so the inputs above stay what they were.
	skewRng := rand.New(rand.NewSource(59))
	inputs["dirty-skew"] = terseThenVerboseBlocks(skewRng, 27, 60, 40)
	inputs["hub-half"] = hubBlocks(skewRng, 5, 40)
	return inputs
}

// terseThenVerboseBlocks is an ID-sorted Dirty collection whose first terse
// profiles sit in 2 of the blocks each and the rest in 9: the repository
// benchmark's batch_meta shape (a 7-token source followed by a 32-token
// one) in a handful of nodes.
func terseThenVerboseBlocks(rng *rand.Rand, terse, numEntities, numBlocks int) *block.Collection {
	members := make([][]entity.ID, numBlocks)
	for i := 0; i < numEntities; i++ {
		keys := 2
		if i >= terse {
			keys = 9
		}
		for _, b := range rng.Perm(numBlocks)[:keys] {
			members[b] = append(members[b], entity.ID(i)) // ascending: i only grows
		}
	}
	return dirtyOf(numEntities, slices.DeleteFunc(members, func(m []entity.ID) bool { return len(m) < 2 })...)
}

// hubBlocks pairs one low-ID hub with a random other profile, sixty times
// over, next to a few blocks that avoid it: the hub alone carries half the
// scan cost of the collection, so at any worker count the range that holds
// it is over its share and the ones beside it run short or empty.
func hubBlocks(rng *rand.Rand, hub entity.ID, numEntities int) *block.Collection {
	var blocks [][]entity.ID
	for b := 0; b < 60; b++ {
		other := hub
		for other == hub {
			other = entity.ID(rng.Intn(numEntities))
		}
		blocks = append(blocks, []entity.ID{min(hub, other), max(hub, other)})
	}
	for b := 0; b < 5; b++ {
		blocks = append(blocks, sampleIDs(rng, int(hub)+1, numEntities, 2))
	}
	return dirtyOf(numEntities, blocks...)
}

// TestSinglePassWNPMatchesTwoPass: for every input shape, scheme and worker
// count, the single node-centric pass returns exactly the comparisons of
// the two-pass reference for all six node-centric algorithms, in canonical
// order.
func TestSinglePassWNPMatchesTwoPass(t *testing.T) {
	for name, blocks := range wnpInputs() {
		n := blocks.NumEntities
		for _, scheme := range AllSchemes {
			for _, alg := range nodeCentricFamilies {
				want := twoPassWNP(NewGraph(blocks, scheme), alg)
				if len(want) == 0 {
					t.Fatalf("%s/%v/%v: reference retains nothing", name, scheme, alg)
				}
				serial := NewGraph(blocks, scheme).Prune(alg)
				if !slices.IsSortedFunc(serial, comparePairs) {
					t.Fatalf("%s/%v/%v serial: not in canonical order: %v", name, scheme, alg, serial)
				}
				if !reflect.DeepEqual(serial, want) {
					t.Fatalf("%s/%v/%v serial: %d pairs, two-pass reference %d", name, scheme, alg, len(serial), len(want))
				}
				for _, workers := range []int{1, 2, 3, 4, 7, n + 1} {
					got := NewGraph(blocks, scheme).PruneParallel(alg, workers)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%v/%v workers=%d: %d pairs, two-pass reference %d\n got %v\nwant %v",
							name, scheme, alg, workers, len(got), len(want), got, want)
					}
				}
			}
		}
	}
}

// TestCardinalityThresholdCorners pins the two inputs where a k-th-key
// threshold could part from Alg. 4's sorted stack. When k covers every
// neighborhood the criterion admits all: CNP keeps every edge twice, its
// variants once. When every weight ties, the neighbor ID alone ranks the
// edges: each node admits its k smallest neighbors.
func TestCardinalityThresholdCorners(t *testing.T) {
	inputs := wnpInputs()
	g := NewGraph(inputs["k-covers-all"], JS)
	edges := int(g.NumEdges())
	g.ForEachNode(func(i entity.ID, neighbors []entity.ID, _ []float64) {
		if len(neighbors) > g.CardinalityNodeThreshold() {
			t.Fatalf("node %d has %d neighbors, k = %d: input no longer covers the corner", i, len(neighbors), g.CardinalityNodeThreshold())
		}
	})
	for alg, want := range map[Algorithm]int{CNP: 2 * edges, RedefinedCNP: edges, ReciprocalCNP: edges} {
		if got := len(g.Prune(alg)); got != want {
			t.Errorf("k-covers-all %v: %d comparisons, want %d", alg, got, want)
		}
		if got := len(g.PruneParallel(alg, 3)); got != want {
			t.Errorf("k-covers-all %v workers=3: %d comparisons, want %d", alg, got, want)
		}
	}

	g = NewGraph(inputs["tied-dirty"], CBS)
	k := g.CardinalityNodeThreshold()
	if k >= 29 {
		t.Fatalf("k = %d covers the tied clique: input no longer ranks by neighbor ID", k)
	}
	// Node i admits neighbors 0..k (skipping itself), so both endpoints
	// admit i-j exactly when both IDs are at most k.
	var want []entity.Pair
	for i := entity.ID(0); int(i) <= k; i++ {
		for j := i + 1; int(j) <= k; j++ {
			want = append(want, entity.Pair{A: i, B: j})
		}
	}
	if got := g.PruneParallel(ReciprocalCNP, 2); !reflect.DeepEqual(got, want) {
		t.Errorf("tied-dirty Reciprocal CNP = %v, want the clique on 0..%d", got, k)
	}
}

// pendingSlots sums the pending lists of the buckets.
func pendingSlots(buckets []nodeBucket) (pending int) {
	for _, b := range buckets {
		pending += len(b.pending)
	}
	return pending
}

// TestWNPPendingEdges pins where the pass defers a decision: never for
// Clean-Clean ER (the two phases leave no threshold unknown) nor with one
// worker; when all edges cross the boundary between the two ranges of a
// band, in exactly the slots the copies rule leaves open; and in fewer slots
// the more bands the ID space is cut into, for the same output.
func TestWNPPendingEdges(t *testing.T) {
	inputs := wnpInputs()
	pendingOf := func(blocks *block.Collection, alg Algorithm, workers int) int {
		g := NewGraph(blocks, JS)
		buckets, _ := g.nodeBuckets(alg, par.Resolve(workers, blocks.NumEntities))
		return pendingSlots(buckets)
	}
	for _, alg := range nodeCentricFamilies {
		for _, name := range []string{"clean", "clean-skew", "tied-clean"} {
			for _, workers := range []int{1, 2, 3, 4, 7, inputs[name].NumEntities + 1} {
				if pending := pendingOf(inputs[name], alg, workers); pending != 0 {
					t.Errorf("%s %v workers=%d: %d pending slots, want 0", name, alg, workers, pending)
				}
			}
		}
		if pending := pendingOf(inputs["dirty"], alg, 1); pending != 0 {
			t.Errorf("dirty %v workers=1: %d pending slots, want 0", alg, pending)
		}
	}

	// On crossing, as one band cut in the middle, the lower range decides
	// nothing for good but what its own thresholds settle, and the upper
	// range has no larger neighbor to emit to. With met of the |E| edges
	// admitted by their smaller endpoint: the originals settle one slot per
	// admitted edge and leave one pending per edge; Redefined settles the
	// admitted edges and defers the rest; Reciprocal keeps an edge only
	// through the pending list.
	g := NewGraph(inputs["crossing"], JS)
	n := inputs["crossing"].NumEntities
	edges := int(g.NumEdges())
	for _, alg := range nodeCentricFamilies {
		verdicts, met := endpointVerdicts(g, alg), 0
		g.ForEachEdge(func(i, j entity.ID, w float64) {
			if okI, _ := verdicts(i, j, w); okI {
				met++
			}
		})
		if met == 0 || met == edges {
			t.Fatalf("crossing %v: %d of %d edges met their smaller endpoint's criterion: input tells nothing", alg, met, edges)
		}
		wantPending, wantSettled := edges, met
		switch alg {
		case RedefinedCNP, RedefinedWNP:
			wantPending = edges - met
		case ReciprocalCNP, ReciprocalWNP:
			wantPending, wantSettled = met, 0
		}
		// The two ranges of the band, as their workers would run them: either
		// order, since neither reads a threshold the other writes.
		thresholds := make([]nodeThreshold, n)
		buckets := []nodeBucket{g.decideRange(alg, 0, n/2, n, thresholds), g.decideRange(alg, n/2, n, n, thresholds)}
		pending := len(buckets[0].pending)
		if settled := len(buckets[0].pairs) - pending; pending != wantPending || settled != wantSettled {
			t.Errorf("crossing %v: %d pending and %d settled slots, want %d and %d", alg, pending, settled, wantPending, wantSettled)
		}
		if len(buckets[1].pairs) != 0 {
			t.Errorf("crossing %v: upper range emitted %d pairs, want 0", alg, len(buckets[1].pairs))
		}
	}

	// Bands are what keeps a cost-balanced split from paying for its speed
	// in pending slots: an edge waits for the barrier only if both endpoints
	// lie in one band.
	for _, alg := range nodeCentricFamilies {
		g := NewGraph(inputs["dirty"], JS)
		want := g.PruneParallel(alg, 1)
		pendingIn := func(bands int) int {
			buckets, thresholds := g.nodeBucketsIn(alg, 2, bands)
			pending := pendingSlots(buckets)
			var got []entity.Pair
			for b := range buckets {
				buckets[b].resolve(thresholds)
				got = buckets[b].appendAscending(got)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("dirty %v in %d bands: %d pairs, one worker retains %d", alg, bands, len(got), len(want))
			}
			return pending
		}
		oneBand := pendingIn(1)
		for _, bands := range []int{4, nodeBands} {
			if pending := pendingIn(bands); pending >= oneBand {
				t.Errorf("dirty %v: %d pending slots in %d bands, %d in one: want strictly fewer", alg, pending, bands, oneBand)
			}
		}
	}
}
