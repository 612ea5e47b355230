package block

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"metablocking/internal/entity"
	"metablocking/internal/postings"
)

func TestEntityIndexLists(t *testing.T) {
	c := dirtyFixture()
	idx := NewEntityIndex(c)
	want := map[entity.ID][]int32{
		0: {0, 1},
		1: {0, 1},
		2: {0, 2},
		3: {2},
	}
	for id, list := range want {
		if got := idx.BlockList(id); !reflect.DeepEqual(got, list) {
			t.Errorf("BlockList(%d) = %v, want %v", id, got, list)
		}
		if idx.NumBlocks(id) != len(list) {
			t.Errorf("NumBlocks(%d) = %d, want %d", id, idx.NumBlocks(id), len(list))
		}
	}
	if idx.NumEntities() != 4 {
		t.Errorf("NumEntities = %d, want 4", idx.NumEntities())
	}
}

func TestEntityIndexListsAreAscending(t *testing.T) {
	c := randomCollection(rand.New(rand.NewSource(1)), 50, 30)
	idx := NewEntityIndex(c)
	for id := 0; id < c.NumEntities; id++ {
		list := idx.BlockList(entity.ID(id))
		if !sort.SliceIsSorted(list, func(i, j int) bool { return list[i] < list[j] }) {
			t.Fatalf("block list of %d not ascending: %v", id, list)
		}
	}
}

// commonBlocks returns |Bij|, the number of blocks the two entities
// share: the intersection of their block lists.
func commonBlocks(x *EntityIndex, a, b entity.ID) int {
	return postings.IntersectCount(x.BlockList(a), x.BlockList(b))
}

func TestCommonBlocks(t *testing.T) {
	c := dirtyFixture()
	idx := NewEntityIndex(c)
	cases := []struct {
		a, b entity.ID
		want int
	}{
		{0, 1, 2}, // blocks 0 and 1
		{0, 2, 1}, // block 0
		{2, 3, 1}, // block 2
		{0, 3, 0},
	}
	for _, tc := range cases {
		if got := commonBlocks(idx, tc.a, tc.b); got != tc.want {
			t.Errorf("commonBlocks(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLeastCommonBlockAndLeCoBI(t *testing.T) {
	c := dirtyFixture()
	idx := NewEntityIndex(c)
	if got := idx.LeastCommonBlock(0, 1); got != 0 {
		t.Fatalf("LeastCommonBlock(0,1) = %d, want 0", got)
	}
	if got := idx.LeastCommonBlock(0, 3); got != -1 {
		t.Fatalf("LeastCommonBlock(0,3) = %d, want -1", got)
	}
	if !idx.IsNonRedundant(0, 0, 1) {
		t.Fatal("comparison (0,1) in block 0 must be non-redundant")
	}
	if idx.IsNonRedundant(1, 0, 1) {
		t.Fatal("comparison (0,1) in block 1 must be redundant (repeated from block 0)")
	}
}

// randomCollection builds a random Dirty block collection for property-style
// tests: numBlocks blocks over numEntities profiles, 2-6 members each.
func randomCollection(rng *rand.Rand, numEntities, numBlocks int) *Collection {
	c := &Collection{Task: entity.Dirty, NumEntities: numEntities, Split: numEntities}
	for b := 0; b < numBlocks; b++ {
		size := 2 + rng.Intn(5)
		seen := make(map[entity.ID]struct{})
		var members []entity.ID
		for len(members) < size {
			id := entity.ID(rng.Intn(numEntities))
			if _, ok := seen[id]; ok {
				continue
			}
			seen[id] = struct{}{}
			members = append(members, id)
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		c.Blocks = append(c.Blocks, Block{Key: string(rune('a' + b)), E1: members})
	}
	return c
}

// randomCleanCollection builds a random Clean-Clean block collection.
func randomCleanCollection(rng *rand.Rand, split, numEntities, numBlocks int) *Collection {
	c := &Collection{Task: entity.CleanClean, NumEntities: numEntities, Split: split}
	for b := 0; b < numBlocks; b++ {
		n1, n2 := 1+rng.Intn(3), 1+rng.Intn(3)
		e1 := distinctIDs(rng, 0, split, n1)
		e2 := distinctIDs(rng, split, numEntities, n2)
		c.Blocks = append(c.Blocks, Block{Key: string(rune('a' + b)), E1: e1, E2: e2})
	}
	return c
}

func distinctIDs(rng *rand.Rand, lo, hi, n int) []entity.ID {
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

// Property: commonBlocks agrees with a brute-force intersection of block
// membership, on random collections.
func TestCommonBlocksMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		c := randomCollection(rng, 20, 15)
		idx := NewEntityIndex(c)
		for a := entity.ID(0); int(a) < c.NumEntities; a++ {
			for b := a + 1; int(b) < c.NumEntities; b++ {
				want := 0
				for k := range c.Blocks {
					if containsID(c.Blocks[k].E1, a) && containsID(c.Blocks[k].E1, b) {
						want++
					}
				}
				if got := commonBlocks(idx, a, b); got != want {
					t.Fatalf("trial %d: commonBlocks(%d,%d) = %d, want %d", trial, a, b, got, want)
				}
			}
		}
	}
}

func containsID(ids []entity.ID, x entity.ID) bool {
	for _, id := range ids {
		if id == x {
			return true
		}
	}
	return false
}
