package blocking

import (
	"reflect"
	"strings"
	"testing"

	"metablocking/internal/block"
	"metablocking/internal/entity"
	"metablocking/internal/paperexample"
	"metablocking/internal/postings"
)

// TestTokenBlockingPaperExample verifies that Token Blocking reproduces the
// paper's Figure 1(b) exactly: the 8 blocks, their members, and the 13
// comparisons.
func TestTokenBlockingPaperExample(t *testing.T) {
	c := paperexample.Collection()
	got := TokenBlocking{}.Build(c)
	want := paperexample.Blocks()

	if got.Len() != len(want) {
		t.Fatalf("|B| = %d, want %d", got.Len(), len(want))
	}
	for i := range got.Blocks {
		b := &got.Blocks[i]
		members, ok := want[b.Key]
		if !ok {
			t.Errorf("unexpected block %q", b.Key)
			continue
		}
		if !reflect.DeepEqual(b.E1, members) {
			t.Errorf("block %q = %v, want %v", b.Key, b.E1, members)
		}
	}
	if got.Comparisons() != 13 {
		t.Errorf("‖B‖ = %d, want 13 (paper §1)", got.Comparisons())
	}
	// Both duplicate pairs co-occur in at least one block.
	if det := got.DetectedDuplicates(paperexample.GroundTruth()); det != 2 {
		t.Errorf("|D(B)| = %d, want 2", det)
	}
}

func TestTokenBlockingCleanClean(t *testing.T) {
	mk := func(value string) entity.Profile {
		var p entity.Profile
		p.Add("v", value)
		return p
	}
	c := entity.NewCleanClean(
		[]entity.Profile{mk("alpha beta"), mk("gamma")},
		[]entity.Profile{mk("beta delta"), mk("epsilon gamma")},
	)
	blocks := TokenBlocking{}.Build(c)
	// Valid blocks need one member from each side: beta {0}×{2},
	// gamma {1}×{3}. alpha/delta/epsilon are single-source.
	if blocks.Len() != 2 {
		t.Fatalf("|B| = %d, want 2: %+v", blocks.Len(), blocks.Blocks)
	}
	for i := range blocks.Blocks {
		b := &blocks.Blocks[i]
		if len(b.E1) == 0 || len(b.E2) == 0 {
			t.Errorf("block %q lacks a side: %v | %v", b.Key, b.E1, b.E2)
		}
	}
	if blocks.Comparisons() != 2 {
		t.Fatalf("‖B‖ = %d, want 2", blocks.Comparisons())
	}
	if blocks.Split != 2 {
		t.Fatalf("Split = %d, want 2", blocks.Split)
	}
}

func TestTokenBlockingMinTokenLength(t *testing.T) {
	mk := func(value string) entity.Profile {
		var p entity.Profile
		p.Add("v", value)
		return p
	}
	c := entity.NewDirty([]entity.Profile{mk("ab longtoken"), mk("ab longtoken")})
	all := TokenBlocking{}.Build(c)
	if all.Len() != 2 {
		t.Fatalf("|B| = %d, want 2", all.Len())
	}
	long := TokenBlocking{MinTokenLength: 3}.Build(c)
	if long.Len() != 1 || long.Blocks[0].Key != "longtoken" {
		t.Fatalf("MinTokenLength did not drop short tokens: %+v", long.Blocks)
	}
}

func TestTokenBlockingDeduplicatesProfileTokens(t *testing.T) {
	var p1, p2 entity.Profile
	p1.Add("a", "dup dup dup")
	p2.Add("b", "dup")
	c := entity.NewDirty([]entity.Profile{p1, p2})
	blocks := TokenBlocking{}.Build(c)
	if blocks.Len() != 1 {
		t.Fatalf("|B| = %d, want 1", blocks.Len())
	}
	if got := blocks.Blocks[0].E1; !reflect.DeepEqual(got, []entity.ID{0, 1}) {
		t.Fatalf("members = %v: repeated tokens must not duplicate assignments", got)
	}
}

func TestTokenBlockingDeterminism(t *testing.T) {
	c := paperexample.Collection()
	a := TokenBlocking{}.Build(c)
	b := TokenBlocking{}.Build(c)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Token Blocking output is not deterministic")
	}
}

func TestQGramsBlocking(t *testing.T) {
	mk := func(value string) entity.Profile {
		var p entity.Profile
		p.Add("v", value)
		return p
	}
	// "miller" vs the typo "millar" share no token but share q-grams.
	c := entity.NewDirty([]entity.Profile{mk("miller"), mk("millar")})
	tokens := TokenBlocking{}.Build(c)
	if tokens.Len() != 0 {
		t.Fatalf("token blocking should produce no blocks, got %d", tokens.Len())
	}
	grams := QGramsBlocking{Q: 3}.Build(c)
	if grams.Len() == 0 {
		t.Fatal("q-grams blocking must co-block the typo variants")
	}
	if grams.DetectedDuplicates(entity.NewGroundTruth([]entity.Pair{{A: 0, B: 1}})) != 1 {
		t.Fatal("typo pair not detected by q-grams")
	}
	// Short tokens are kept whole.
	c2 := entity.NewDirty([]entity.Profile{mk("ab"), mk("ab")})
	g2 := QGramsBlocking{}.Build(c2)
	if g2.Len() != 1 || g2.Blocks[0].Key != "ab" {
		t.Fatalf("short tokens must block whole: %+v", g2.Blocks)
	}
}

func TestQGramsDefaultQ(t *testing.T) {
	if (QGramsBlocking{}).size() != 3 || (QGramsBlocking{Q: 4}).size() != 4 {
		t.Fatal("unexpected q defaults")
	}
}

func TestSuffixArrayBlocking(t *testing.T) {
	mk := func(value string) entity.Profile {
		var p entity.Profile
		p.Add("v", value)
		return p
	}
	// "johnson" and "johnsen"? No common suffix of length >= 4 except...
	// "nson"/"nsen" differ. Use "anderson" and "henderson": common
	// suffixes "nderson", "derson", "erson", "rson" (>= MinLength 4).
	c := entity.NewDirty([]entity.Profile{mk("anderson"), mk("henderson")})
	blocks := SuffixArrayBlocking{MinLength: 4}.Build(c)
	if blocks.Len() == 0 {
		t.Fatal("no common suffix blocks found")
	}
	keys := make(map[string]bool)
	for i := range blocks.Blocks {
		keys[blocks.Blocks[i].Key] = true
	}
	for _, want := range []string{"nderson", "derson", "erson", "rson"} {
		if !keys[want] {
			t.Errorf("missing suffix block %q (have %v)", want, keys)
		}
	}
	for key := range keys {
		if len(key) < 4 {
			t.Errorf("suffix %q shorter than MinLength", key)
		}
		if !strings.HasSuffix("anderson", key) || !strings.HasSuffix("henderson", key) {
			t.Errorf("block key %q is not a shared suffix", key)
		}
	}
}

func TestSuffixArrayMaxBlockSize(t *testing.T) {
	var profiles []entity.Profile
	for i := 0; i < 10; i++ {
		var p entity.Profile
		p.Add("v", "common")
		profiles = append(profiles, p)
	}
	c := entity.NewDirty(profiles)
	blocks := SuffixArrayBlocking{MinLength: 4, MaxBlockSize: 5}.Build(c)
	if blocks.Len() != 0 {
		t.Fatalf("oversized suffix blocks must be dropped, got %d blocks", blocks.Len())
	}
}

func TestAttributeClusteringBlocking(t *testing.T) {
	mk := func(name, value string) entity.Profile {
		var p entity.Profile
		p.Add(name, value)
		return p
	}
	// "title" and "name" share vocabulary; "year" values are disjoint
	// numbers that also appear inside titles — attribute clustering keeps
	// the 2001 in "year" from blocking with the 2001 in "title" only if
	// the attributes land in different clusters.
	c := entity.NewCleanClean(
		[]entity.Profile{
			mk("title", "space odyssey 2001 film"),
			mk("year", "2001"),
		},
		[]entity.Profile{
			mk("name", "space odyssey 2001 movie film"),
			mk("released", "1999"),
		},
	)
	blocks := AttributeClusteringBlocking{Threshold: 0.2}.Build(c)
	if blocks.Len() == 0 {
		t.Fatal("no blocks produced")
	}
	// The duplicate pair (0, 2) must still co-occur.
	gt := entity.NewGroundTruth([]entity.Pair{{A: 0, B: 2}})
	if blocks.DetectedDuplicates(gt) != 1 {
		t.Fatal("duplicate pair lost by attribute clustering")
	}
	// Every key carries a cluster prefix.
	for i := range blocks.Blocks {
		if !strings.Contains(blocks.Blocks[i].Key, "#") {
			t.Fatalf("key %q lacks cluster prefix", blocks.Blocks[i].Key)
		}
	}
}

func TestStandardBlockingDisjoint(t *testing.T) {
	c := paperexample.Collection()
	blocks := StandardBlocking{}.Build(c)
	seen := make(map[entity.ID]int)
	for i := range blocks.Blocks {
		for _, id := range blocks.Blocks[i].E1 {
			seen[id]++
		}
	}
	for id, n := range seen {
		if n > 1 {
			t.Fatalf("profile %d appears in %d blocks; standard blocking must be disjoint", id, n)
		}
	}
}

func TestStandardBlockingCustomKey(t *testing.T) {
	c := paperexample.Collection()
	blocks := StandardBlocking{Key: func(p *entity.Profile) string {
		return "same-for-everyone"
	}}.Build(c)
	if blocks.Len() != 1 || blocks.Blocks[0].Size() != 6 {
		t.Fatalf("expected one block of 6, got %+v", blocks.Blocks)
	}
}

func TestFirstTokenKey(t *testing.T) {
	var p entity.Profile
	p.Add("empty", "   ")
	p.Add("name", "Jack Miller")
	if got := FirstTokenKey(&p); got != "jack" {
		t.Fatalf("FirstTokenKey = %q, want jack", got)
	}
	var empty entity.Profile
	if FirstTokenKey(&empty) != "" {
		t.Fatal("empty profile must yield empty key")
	}
}

func TestSortedNeighborhoodWindow(t *testing.T) {
	mk := func(value string) entity.Profile {
		var p entity.Profile
		p.Add("v", value)
		return p
	}
	c := entity.NewDirty([]entity.Profile{
		mk("alpha"), mk("beta"), mk("gamma"), mk("delta"), mk("epsilon"),
	})
	blocks := SortedNeighborhood{Window: 2}.Build(c)
	// Sorted keys: alpha(0) beta(1) delta(3) epsilon(4) gamma(2); windows
	// of 2 → 4 blocks, each with exactly 1 comparison.
	if blocks.Len() != 4 {
		t.Fatalf("|B| = %d, want 4", blocks.Len())
	}
	for i := range blocks.Blocks {
		if blocks.Blocks[i].Comparisons() != 1 {
			t.Fatalf("window block %d has %d comparisons, want 1", i, blocks.Blocks[i].Comparisons())
		}
	}
	// Redundancy-neutral: adjacent profiles co-occur in at most Window-1
	// windows regardless of similarity.
	idx := block.NewEntityIndex(blocks)
	if commonBlocks(idx, 0, 1) != 1 {
		t.Fatalf("adjacent pair shares %d blocks, want 1", commonBlocks(idx, 0, 1))
	}
}

func TestSortedNeighborhoodCleanClean(t *testing.T) {
	mk := func(value string) entity.Profile {
		var p entity.Profile
		p.Add("v", value)
		return p
	}
	c := entity.NewCleanClean(
		[]entity.Profile{mk("aaa"), mk("ccc")},
		[]entity.Profile{mk("aab"), mk("ddd")},
	)
	blocks := SortedNeighborhood{Window: 2}.Build(c)
	for i := range blocks.Blocks {
		b := &blocks.Blocks[i]
		if len(b.E1) == 0 || len(b.E2) == 0 {
			t.Fatalf("clean-clean window block without both sides: %+v", b)
		}
	}
}

func TestMethodNames(t *testing.T) {
	methods := []Method{
		TokenBlocking{}, QGramsBlocking{}, SuffixArrayBlocking{},
		AttributeClusteringBlocking{}, StandardBlocking{}, SortedNeighborhood{},
	}
	seen := make(map[string]bool)
	for _, m := range methods {
		name := m.Name()
		if name == "" || seen[name] {
			t.Fatalf("method name %q empty or duplicated", name)
		}
		seen[name] = true
	}
}

// commonBlocks returns |Bij|, the number of blocks the two entities
// share: the intersection of their block lists.
func commonBlocks(x *block.EntityIndex, a, b entity.ID) int {
	return postings.IntersectCount(x.BlockList(a), x.BlockList(b))
}
