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

// twoPassWNP is Algorithm 5 as the paper states it and as this package
// implemented it before the single-pass form: a node-centric pass for the
// neighborhood thresholds, then an edge-centric pass testing every edge
// against both, in canonical order. It is the reference the single pass
// must reproduce element for element.
func twoPassWNP(g *Graph, reciprocal bool) []entity.Pair {
	thresholds := make([]float64, g.blocks.NumEntities)
	g.ForEachNode(func(i entity.ID, _ []entity.ID, weights []float64) {
		thresholds[i] = g.meanOf(weights)
	})
	out := []entity.Pair{}
	g.ForEachEdge(func(i, j entity.ID, w float64) {
		okI, okJ := w >= thresholds[i], w >= thresholds[j]
		if (reciprocal && okI && okJ) || (!reciprocal && (okI || okJ)) {
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
	return inputs
}

// TestSinglePassWNPMatchesTwoPass: for every input shape, scheme and worker
// count, the single-pass Redefined/Reciprocal WNP returns exactly the
// pairs of the two-pass Algorithm 5, in canonical order; the serial form
// returns them in node order.
func TestSinglePassWNPMatchesTwoPass(t *testing.T) {
	for name, blocks := range wnpInputs() {
		n := blocks.NumEntities
		for _, scheme := range AllSchemes {
			for _, alg := range []Algorithm{RedefinedWNP, ReciprocalWNP} {
				want := twoPassWNP(NewGraph(blocks, scheme), alg == ReciprocalWNP)
				if len(want) == 0 {
					t.Fatalf("%s/%v/%v: reference retains nothing", name, scheme, alg)
				}
				serial := NewGraph(blocks, scheme).Prune(alg)
				sortPairs(serial)
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

// TestWNPPendingEdges pins where the single pass defers a decision: never
// for Clean-Clean ER (the two phases leave no threshold unknown) nor with
// one worker, and for every retained edge when all edges cross the
// boundary between two workers.
func TestWNPPendingEdges(t *testing.T) {
	inputs := wnpInputs()
	pendingOf := func(blocks *block.Collection, reciprocal bool, workers int) (pending int) {
		g := NewGraph(blocks, JS)
		buckets, _ := g.wnpBuckets(reciprocal, par.Resolve(workers, blocks.NumEntities))
		for _, b := range buckets {
			pending += len(b.pending)
		}
		return pending
	}
	for _, reciprocal := range []bool{false, true} {
		for _, name := range []string{"clean", "clean-skew", "tied-clean"} {
			for _, workers := range []int{1, 2, 3, 4, 7, inputs[name].NumEntities + 1} {
				if pending := pendingOf(inputs[name], reciprocal, workers); pending != 0 {
					t.Errorf("%s reciprocal=%v workers=%d: %d pending edges, want 0", name, reciprocal, workers, pending)
				}
			}
		}
		if pending := pendingOf(inputs["dirty"], reciprocal, 1); pending != 0 {
			t.Errorf("dirty reciprocal=%v workers=1: %d pending edges, want 0", reciprocal, pending)
		}
	}
	// Reciprocal WNP keeps an edge only through the pending list here, and
	// the upper range has no larger neighbor to emit to.
	g := NewGraph(inputs["crossing"], JS)
	buckets, _ := g.wnpBuckets(true, 2)
	if len(buckets[0].pending) == 0 || len(buckets[0].pending) != len(buckets[0].pairs) {
		t.Errorf("crossing: %d pending of %d kept edges, want all of them pending",
			len(buckets[0].pending), len(buckets[0].pairs))
	}
	if len(buckets[1].pairs) != 0 {
		t.Errorf("crossing: upper range emitted %d pairs, want 0", len(buckets[1].pairs))
	}
	// Redefined WNP settles at once what met the smaller endpoint's
	// threshold and defers only the rest.
	buckets, _ = g.wnpBuckets(false, 2)
	if p, all := len(buckets[0].pending), len(buckets[0].pairs); p == 0 || p >= all {
		t.Errorf("crossing redefined: %d pending of %d kept edges, want some but not all", p, all)
	}
}
