package blockproc_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"metablocking/internal/block"
	"metablocking/internal/blockproc"
	"metablocking/internal/entity"
	"metablocking/internal/obs"
	"metablocking/internal/oracle"
)

// randomClean builds a Clean-Clean collection of bilateral blocks over
// split E1 profiles and numEntities-split E2 profiles.
func randomClean(rng *rand.Rand, numEntities, split, numBlocks int) *block.Collection {
	c := &block.Collection{Task: entity.CleanClean, NumEntities: numEntities, Split: split}
	side := func(lo, hi int) []entity.ID {
		ids := []entity.ID{}
		for _, k := range rng.Perm(hi - lo)[:1+rng.Intn(min(4, hi-lo))] {
			ids = append(ids, entity.ID(lo+k))
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	for b := 0; b < numBlocks; b++ {
		c.Blocks = append(c.Blocks, block.Block{
			Key: fmt.Sprint("k", b), E1: side(0, split), E2: side(split, numEntities),
		})
	}
	return c
}

func ids(lo, hi int) []entity.ID {
	out := make([]entity.ID, 0, hi-lo)
	for id := lo; id < hi; id++ {
		out = append(out, entity.ID(id))
	}
	return out
}

// propagationInputs are the collections the ScanCount pass is checked on:
// random ones of both tasks plus shapes built to break it.
func propagationInputs() map[string]*block.Collection {
	rng := rand.New(rand.NewSource(22))
	in := map[string]*block.Collection{
		"dirty":        blockproc.RandomDirty(rng, 60, 45),
		"dirty-dense":  blockproc.RandomDirty(rng, 12, 80),
		"clean":        randomClean(rng, 50, 20, 40),
		"clean-skewed": randomClean(rng, 40, 3, 30),
		// Σ|b|² worst case: every pair co-occurs, in one block.
		"one-block-of-all": {Task: entity.Dirty, NumEntities: 40, Split: 40,
			Blocks: []block.Block{{Key: "all", E1: ids(0, 40)}}},
		"no-entities": {Task: entity.Dirty},
		"no-blocks":   {Task: entity.Dirty, NumEntities: 9, Split: 9},
	}

	// Maximal redundancy: 50 copies of one block, count ≪ Comparisons().
	repeated := &block.Collection{Task: entity.Dirty, NumEntities: 20, Split: 20}
	for k := 0; k < 50; k++ {
		repeated.Blocks = append(repeated.Blocks, block.Block{Key: fmt.Sprint("r", k), E1: ids(3, 15)})
	}
	in["repeated-block"] = repeated

	// IDs 10..29 and the last five appear in no block; single-member and
	// empty blocks sit between the real ones.
	gaps := blockproc.RandomDirty(rng, 10, 12)
	gaps.NumEntities, gaps.Split = 45, 45
	for _, b := range blockproc.RandomDirty(rng, 10, 12).Blocks {
		for k := range b.E1 {
			b.E1[k] += 30
		}
		gaps.Blocks = append(gaps.Blocks, b,
			block.Block{Key: "single" + b.Key, E1: []entity.ID{b.E1[0]}},
			block.Block{Key: "empty" + b.Key})
	}
	gaps.Blocks = append(gaps.Blocks, block.Block{Key: "bridge", E1: []entity.ID{2, 33, 39}})
	in["id-gaps"] = gaps

	// Clean-Clean blocks whose E2 side was emptied entail no comparison.
	hollow := randomClean(rng, 30, 12, 25)
	for k := 0; k < len(hollow.Blocks); k += 3 {
		hollow.Blocks[k].E2 = []entity.ID{}
	}
	in["clean-empty-e2"] = hollow
	return in
}

// TestPropagationScanCountMatchesReferences: the node-centric pass returns
// the distinct set of both references, the same slice for every worker
// count, all canonical.
func TestPropagationScanCountMatchesReferences(t *testing.T) {
	for name, c := range propagationInputs() {
		t.Run(name, func(t *testing.T) {
			lecobi := oracle.PropagateLeCoBI(c)
			direct := oracle.PropagateDirect(c)
			if !samePairs(lecobi, direct) {
				t.Fatalf("references disagree: LeCoBI %d pairs, direct %d", len(lecobi), len(direct))
			}
			serial := blockproc.ComparisonPropagation{}.Apply(c)
			if !samePairs(serial, direct) {
				t.Fatalf("Apply retains %d pairs, references %d", len(serial), len(direct))
			}
			for k, p := range serial {
				if p.A >= p.B {
					t.Fatalf("pair %v is not canonical", p)
				}
				if c.Task == entity.CleanClean && c.InFirst(p.A) == c.InFirst(p.B) {
					t.Fatalf("pair %v does not cross the split %d", p, c.Split)
				}
				if k > 0 && serial[k-1].A > p.A {
					t.Fatalf("A not ascending at %d: %v after %v", k, p, serial[k-1])
				}
			}
			for _, w := range []int{1, 2, 3, 7, c.NumEntities + 1} {
				got := blockproc.ComparisonPropagation{Workers: w}.Apply(c)
				if !reflect.DeepEqual(got, serial) {
					t.Fatalf("workers=%d: output differs from serial (%d vs %d pairs)", w, len(got), len(serial))
				}
			}
		})
	}
}

func TestPropagationRepeatedBlockCounts(t *testing.T) {
	c := propagationInputs()["repeated-block"]
	if got, want := len(blockproc.ComparisonPropagation{}.Apply(c)), 12*11/2; got != want || c.Comparisons() != int64(50*want) {
		t.Fatalf("distinct = %d of %d comparisons, want %d of %d", got, c.Comparisons(), want, 50*want)
	}
}

// TestPropagationAllocsConstant pins the allocation profile: the Entity
// Index, the offsets, the stamp array and the result at its exact size —
// a count that does not grow with the output, as repeated append did
// (16× the pairs were a dozen more regrowths; a collection that happens to
// run in the larger call is the slack of 2).
func TestPropagationAllocsConstant(t *testing.T) {
	allocs := func(n int) (float64, []entity.Pair) {
		c := &block.Collection{Task: entity.Dirty, NumEntities: n, Split: n,
			Blocks: []block.Block{{Key: "all", E1: ids(0, n)}, {Key: "again", E1: ids(0, n/2)}}}
		var out []entity.Pair
		a := testing.AllocsPerRun(3, func() { out = blockproc.ComparisonPropagation{Workers: 1}.Apply(c) })
		return a, out
	}
	small, _ := allocs(125)
	large, out := allocs(500)
	if len(out) != 500*499/2 {
		t.Fatalf("%d pairs, want %d", len(out), 500*499/2)
	}
	if cap(out) != len(out) {
		t.Errorf("cap(out) = %d, len(out) = %d: result not allocated at its exact size", cap(out), len(out))
	}
	if large > small+2 || large > 14 {
		t.Errorf("allocations grow with the output: %v for 7 750 pairs, %v for 124 750", small, large)
	}
}

// TestPropagationCanceled: with a canceled context Comparison Propagation
// returns no partial result.
func TestPropagationCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := obs.New(ctx)
	c := propagationInputs()["dirty"]
	for _, w := range []int{0, 3} {
		if got := (blockproc.ComparisonPropagation{Workers: w, Obs: o}).Apply(c); got != nil {
			t.Errorf("workers=%d: Apply returned %d pairs under a canceled context", w, len(got))
		}
	}
}

func TestComparisonPropagationMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		c := blockproc.RandomDirty(rng, 30, 20)
		fast := blockproc.ComparisonPropagation{}.Apply(c)
		direct := oracle.PropagateDirect(c)
		if !samePairs(fast, direct) {
			t.Fatalf("trial %d: Apply (%d pairs) and direct (%d pairs) disagree",
				trial, len(fast), len(direct))
		}
	}
}

func samePairs(a, b []entity.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]entity.Pair(nil), a...)
	bs := append([]entity.Pair(nil), b...)
	less := func(s []entity.Pair) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].A != s[j].A {
				return s[i].A < s[j].A
			}
			return s[i].B < s[j].B
		}
	}
	sort.Slice(as, less(as))
	sort.Slice(bs, less(bs))
	return reflect.DeepEqual(as, bs)
}
