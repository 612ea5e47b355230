package blockproc

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"metablocking/internal/block"
	"metablocking/internal/blocking"
	"metablocking/internal/entity"
	"metablocking/internal/paperexample"
)

func TestBlockPurgingDefaultRatio(t *testing.T) {
	c := &block.Collection{
		Task: entity.Dirty, NumEntities: 6, Split: 6,
		Blocks: []block.Block{
			{Key: "big", E1: []entity.ID{0, 1, 2, 3}}, // 4 > 6/2 → purged
			{Key: "ok", E1: []entity.ID{0, 1, 2}},     // 3 ≤ 3 → kept
			{Key: "small", E1: []entity.ID{4, 5}},
		},
	}
	out := BlockPurging{}.Apply(c)
	if out.Len() != 2 {
		t.Fatalf("|B| = %d, want 2", out.Len())
	}
	for i := range out.Blocks {
		if out.Blocks[i].Key == "big" {
			t.Fatal("oversized block survived purging")
		}
	}
	if out.Split != c.Split || out.NumEntities != c.NumEntities {
		t.Fatal("purging drops collection metadata")
	}
}

func TestBlockPurgingMaxComparisons(t *testing.T) {
	c := &block.Collection{
		Task: entity.Dirty, NumEntities: 100, Split: 100,
		Blocks: []block.Block{
			{Key: "a", E1: []entity.ID{0, 1, 2, 3, 4}}, // 10 comparisons
			{Key: "b", E1: []entity.ID{5, 6}},          // 1 comparison
		},
	}
	out := BlockPurging{MaxComparisons: 5}.Apply(c)
	if out.Len() != 1 || out.Blocks[0].Key != "b" {
		t.Fatalf("cardinality purge failed: %+v", out.Blocks)
	}
}

func TestBlockFilteringPaperSemantics(t *testing.T) {
	// Three blocks of ascending cardinality; profile 0 appears in all.
	// With r=0.5 it must be retained only in the ⌈0.5·3⌉ = 2 smallest.
	c := &block.Collection{
		Task: entity.Dirty, NumEntities: 5, Split: 5,
		Blocks: []block.Block{
			{Key: "large", E1: []entity.ID{0, 1, 2, 3}}, // 6 comparisons
			{Key: "mid", E1: []entity.ID{0, 1, 2}},      // 3 comparisons
			{Key: "small", E1: []entity.ID{0, 4}},       // 1 comparison
		},
	}
	out := BlockFiltering{Ratio: 0.5}.Apply(c)
	// Output order is ascending cardinality: small, mid, large'.
	var keys []string
	membership := make(map[string][]entity.ID)
	for i := range out.Blocks {
		keys = append(keys, out.Blocks[i].Key)
		membership[out.Blocks[i].Key] = out.Blocks[i].E1
	}
	// Limits: profile 0 (3 blocks) → 2; profiles 1, 2 (2 blocks) → 1;
	// profiles 3, 4 (1 block) → 1. Processing order is ascending
	// cardinality, so 0 stays in small+mid, 1 and 2 stay in mid only, and
	// the large block is left with the lone profile 3 — dropped because a
	// single-member block entails no comparison (Alg. 1, lines 11-12).
	if got, want := keys, []string{"small", "mid"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("block order = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(membership["small"], []entity.ID{0, 4}) {
		t.Errorf("small block = %v", membership["small"])
	}
	if !reflect.DeepEqual(membership["mid"], []entity.ID{0, 1, 2}) {
		t.Errorf("mid block = %v", membership["mid"])
	}
}

func TestBlockFilteringRatioOneKeepsEverything(t *testing.T) {
	c := blocking.TokenBlocking{}.Build(paperexample.Collection())
	out := BlockFiltering{Ratio: 1.0}.Apply(c)
	if out.Comparisons() != c.Comparisons() {
		t.Fatalf("r=1 changed ‖B‖: %d → %d", c.Comparisons(), out.Comparisons())
	}
	if out.Assignments() != c.Assignments() {
		t.Fatalf("r=1 changed Σ|b|: %d → %d", c.Assignments(), out.Assignments())
	}
}

func TestBlockFilteringMonotoneInRatio(t *testing.T) {
	c := blocking.TokenBlocking{}.Build(paperexample.Collection())
	var prev int64 = -1
	for _, r := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		out := BlockFiltering{Ratio: r}.Apply(c)
		if got := out.Comparisons(); got < prev {
			t.Fatalf("‖B'‖ not monotone in r: r=%v gives %d < %d", r, got, prev)
		} else {
			prev = got
		}
	}
}

func TestBlockFilteringReducesBPEByRatio(t *testing.T) {
	// Every profile's assignments must shrink to ~r·|Bi| (±1 for
	// rounding), hence BPE ≈ r·BPE₀ (paper §6.2: BPE reduced by
	// (1-r)·100%).
	c := blocking.TokenBlocking{}.Build(paperexample.Collection())
	out := BlockFiltering{Ratio: 0.5}.Apply(c)
	idxIn := block.NewEntityIndex(c)
	idxOut := block.NewEntityIndex(out)
	for id := 0; id < c.NumEntities; id++ {
		in, outN := idxIn.NumBlocks(entity.ID(id)), idxOut.NumBlocks(entity.ID(id))
		limit := int(0.5*float64(in) + 0.5)
		if limit < 1 {
			limit = 1
		}
		if outN > limit {
			t.Errorf("profile %d kept %d of %d blocks, limit %d", id, outN, in, limit)
		}
	}
}

func TestBlockFilteringGlobalThreshold(t *testing.T) {
	c := blocking.TokenBlocking{}.Build(paperexample.Collection())
	out := BlockFiltering{Ratio: 0.999, GlobalThreshold: 1}.Apply(c)
	idx := block.NewEntityIndex(out)
	for id := 0; id < c.NumEntities; id++ {
		if idx.NumBlocks(entity.ID(id)) > 1 {
			t.Fatalf("profile %d exceeds the global threshold", id)
		}
	}
}

func TestBlockFilteringDropsEmptyBlocks(t *testing.T) {
	c := blocking.TokenBlocking{}.Build(paperexample.Collection())
	out := BlockFiltering{Ratio: 0.05}.Apply(c)
	for i := range out.Blocks {
		if out.Blocks[i].Comparisons() == 0 {
			t.Fatalf("block %q retains no comparison", out.Blocks[i].Key)
		}
	}
}

func TestComparisonPropagationPaperExample(t *testing.T) {
	c := blocking.TokenBlocking{}.Build(paperexample.Collection())
	pairs := ComparisonPropagation{}.Apply(c)
	// 13 total comparisons, 3 redundant (paper §1) → 10 distinct.
	if len(pairs) != 10 {
		t.Fatalf("distinct comparisons = %d, want 10", len(pairs))
	}
}

func TestGraphFreeMetaBlocking(t *testing.T) {
	c := blocking.TokenBlocking{}.Build(paperexample.Collection())
	gt := paperexample.GroundTruth()
	pairs := GraphFreeMetaBlocking{Ratio: 0.55}.Apply(c)
	if len(pairs) == 0 {
		t.Fatal("no comparisons retained")
	}
	// No redundant comparisons.
	seen := make(map[entity.Pair]struct{})
	for _, p := range pairs {
		if _, dup := seen[p]; dup {
			t.Fatalf("redundant comparison %v retained", p)
		}
		seen[p] = struct{}{}
	}
	// Fewer comparisons than the unfiltered distinct set.
	if full := (ComparisonPropagation{}).Apply(c); len(pairs) >= len(full) {
		t.Fatalf("graph-free retained %d of %d distinct comparisons; expected pruning", len(pairs), len(full))
	}
	detected := 0
	for p := range seen {
		if gt.Contains(p.A, p.B) {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("graph-free meta-blocking lost all duplicates")
	}
}

func TestIterativeBlockingOracle(t *testing.T) {
	c := blocking.TokenBlocking{}.Build(paperexample.Collection())
	gt := paperexample.GroundTruth()
	res := IterativeBlocking{Matcher: OracleMatcher{GT: gt}}.Run(c)
	if len(res.Matches) != 2 {
		t.Fatalf("detected %d duplicates, want 2", len(res.Matches))
	}
	// Iterative blocking must execute fewer comparisons than the raw ‖B‖
	// (it saves the comparisons between already-merged profiles).
	if res.Comparisons >= c.Comparisons() {
		t.Fatalf("executed %d comparisons, input has %d", res.Comparisons, c.Comparisons())
	}
}

func TestIterativeBlockingCleanCleanIdealCase(t *testing.T) {
	// Two matching pairs sharing one big block: after each match, the
	// matched profiles must not be compared to anyone else.
	c := &block.Collection{
		Task: entity.CleanClean, NumEntities: 4, Split: 2,
		Blocks: []block.Block{
			{Key: "x", E1: []entity.ID{0, 1}, E2: []entity.ID{2, 3}},
		},
	}
	gt := entity.NewGroundTruth([]entity.Pair{{A: 0, B: 2}, {A: 1, B: 3}})
	res := IterativeBlocking{Matcher: OracleMatcher{GT: gt}}.Run(c)
	if len(res.Matches) != 2 {
		t.Fatalf("matches = %v", res.Matches)
	}
	// Comparisons: (0,2) match → 0,2 retired; (1,3) match → done.
	// Without the ideal case it would need up to 4.
	if res.Comparisons != 2 {
		t.Fatalf("executed %d comparisons, want 2 under the ideal case", res.Comparisons)
	}
}

func TestIterativeBlockingTransitivity(t *testing.T) {
	// Dirty ER: profiles 0≡1 and 1≡2; after both matches, 0-2 must be
	// skipped as already merged.
	c := &block.Collection{
		Task: entity.Dirty, NumEntities: 3, Split: 3,
		Blocks: []block.Block{
			{Key: "a", E1: []entity.ID{0, 1}},
			{Key: "b", E1: []entity.ID{1, 2}},
			{Key: "c", E1: []entity.ID{0, 2}},
		},
	}
	gt := entity.NewGroundTruth([]entity.Pair{{A: 0, B: 1}, {A: 1, B: 2}, {A: 0, B: 2}})
	res := IterativeBlocking{Matcher: OracleMatcher{GT: gt}}.Run(c)
	if res.Comparisons != 2 {
		t.Fatalf("executed %d comparisons, want 2 (0-2 saved by transitivity)", res.Comparisons)
	}
}

// --- helpers ---

func randomDirty(rng *rand.Rand, numEntities, numBlocks int) *block.Collection {
	c := &block.Collection{Task: entity.Dirty, NumEntities: numEntities, Split: numEntities}
	for b := 0; b < numBlocks; b++ {
		size := 2 + rng.Intn(5)
		if size > numEntities {
			size = numEntities
		}
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
		c.Blocks = append(c.Blocks, block.Block{Key: string(rune('a' + b)), E1: members})
	}
	return c
}
