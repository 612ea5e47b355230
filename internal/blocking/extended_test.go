package blocking

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"metablocking/internal/block"
	"metablocking/internal/entity"
	"metablocking/internal/paperexample"
)

func oneAttr(value string) entity.Profile {
	var p entity.Profile
	p.Add("v", value)
	return p
}

func TestCanopyClusteringMostSimilarShareOneBlock(t *testing.T) {
	// Two near-identical profiles (above the tight threshold) plus a
	// loosely similar one.
	c := entity.NewDirty([]entity.Profile{
		oneAttr("alpha beta gamma delta"),
		oneAttr("alpha beta gamma delta epsilon"),
		oneAttr("alpha beta zeta"),
	})
	blocks := CanopyClustering{LooseThreshold: 2, TightThreshold: 4}.Build(c)
	if blocks.Len() == 0 {
		t.Fatal("no canopies")
	}
	idx := block.NewEntityIndex(blocks)
	// Redundancy-negative: the most similar pair (0,1) shares exactly one
	// canopy.
	if n := commonBlocks(idx, 0, 1); n != 1 {
		t.Fatalf("tight pair shares %d canopies, want exactly 1", n)
	}
}

func TestCanopyClusteringDeterministicPerSeed(t *testing.T) {
	c := paperexample.Collection()
	a := CanopyClustering{Seed: 5}.Build(c)
	b := CanopyClustering{Seed: 5}.Build(c)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different canopies")
	}
}

func TestCanopyClusteringCleanClean(t *testing.T) {
	c := entity.NewCleanClean(
		[]entity.Profile{oneAttr("alpha beta gamma"), oneAttr("solo only here")},
		[]entity.Profile{oneAttr("alpha beta gamma extra"), oneAttr("unrelated words")},
	)
	blocks := CanopyClustering{LooseThreshold: 2, TightThreshold: 3}.Build(c)
	for i := range blocks.Blocks {
		b := &blocks.Blocks[i]
		if len(b.E1) == 0 || len(b.E2) == 0 {
			t.Fatalf("clean-clean canopy without both sides: %+v", b)
		}
	}
	gt := entity.NewGroundTruth([]entity.Pair{{A: 0, B: 2}})
	if blocks.DetectedDuplicates(gt) != 1 {
		t.Fatal("duplicate pair not canopied together")
	}
}

func TestExtendedQGramKeys(t *testing.T) {
	// "miller": grams mil, ill, lle, ler (k=4). T=0.9 → min=4 → drop 0:
	// only the full concatenation.
	keys := extendedQGramKeys("miller", 3, 0.9)
	if len(keys) != 1 || keys[0] != "mil"+"ill"+"lle"+"ler" {
		t.Fatalf("T=0.9 keys = %v", keys)
	}
	// T=0.7 → min=⌈2.8⌉=3 → drop ≤ 1: 1 + 4 keys.
	keys = extendedQGramKeys("miller", 3, 0.7)
	if len(keys) != 5 {
		t.Fatalf("T=0.7 produced %d keys: %v", len(keys), keys)
	}
	// Short tokens pass through whole.
	if got := extendedQGramKeys("ab", 3, 0.9); !reflect.DeepEqual(got, []string{"ab"}) {
		t.Fatalf("short token keys = %v", got)
	}
}

func TestExtendedQGramsMorePreciseThanQGrams(t *testing.T) {
	// "miller" vs "muller": share grams (lle, ler) but not most of them —
	// plain q-grams co-block them, extended q-grams at T=0.9 must not.
	c := entity.NewDirty([]entity.Profile{oneAttr("miller"), oneAttr("muller")})
	plain := QGramsBlocking{Q: 3}.Build(c)
	if plain.Len() == 0 {
		t.Fatal("plain q-grams should co-block miller/muller")
	}
	extended := ExtendedQGramsBlocking{Q: 3, Threshold: 0.9}.Build(c)
	if extended.Len() != 0 {
		t.Fatalf("extended q-grams at T=0.9 co-blocked dissimilar tokens: %+v", extended.Blocks)
	}
	// Identical tokens always co-block.
	c2 := entity.NewDirty([]entity.Profile{oneAttr("miller"), oneAttr("miller")})
	if (ExtendedQGramsBlocking{}).Build(c2).Len() == 0 {
		t.Fatal("identical tokens must co-block")
	}
}

func TestExtendedQGramsTypoRobustness(t *testing.T) {
	// One substituted character: "jonathan" vs "jonathon". With T low
	// enough to drop 2 grams, the pair must share a key.
	c := entity.NewDirty([]entity.Profile{oneAttr("jonathan"), oneAttr("jonathon")})
	blocks := ExtendedQGramsBlocking{Q: 3, Threshold: 0.5}.Build(c)
	gt := entity.NewGroundTruth([]entity.Pair{{A: 0, B: 1}})
	if blocks.DetectedDuplicates(gt) != 1 {
		t.Fatal("typo pair not co-blocked at T=0.5")
	}
}

func TestExtendedSortedNeighborhood(t *testing.T) {
	// Keys: alpha{0,1}, beta{2}, gamma{3}. Window 2 → blocks over
	// {alpha,beta} = {0,1,2} and {beta,gamma} = {2,3}.
	c := entity.NewDirty([]entity.Profile{
		oneAttr("alpha"), oneAttr("alpha"), oneAttr("beta"), oneAttr("gamma"),
	})
	blocks := ExtendedSortedNeighborhood{Window: 2}.Build(c)
	if blocks.Len() != 2 {
		t.Fatalf("|B| = %d, want 2: %+v", blocks.Len(), blocks.Blocks)
	}
	want := [][]entity.ID{{0, 1, 2}, {2, 3}}
	for i, b := range blocks.Blocks {
		if !reflect.DeepEqual(b.E1, want[i]) {
			t.Fatalf("block %d = %v, want %v", i, b.E1, want[i])
		}
	}
}

func TestExtendedSortedNeighborhoodSkewRobust(t *testing.T) {
	// A very frequent key must not push its profiles out of each other's
	// windows (the flaw of record-level SN the extension fixes): all
	// "common" profiles plus the "uncommon" one co-occur.
	profiles := []entity.Profile{
		oneAttr("common"), oneAttr("common"), oneAttr("common"),
		oneAttr("common"), oneAttr("uncommon"),
	}
	c := entity.NewDirty(profiles)
	blocks := ExtendedSortedNeighborhood{Window: 2}.Build(c)
	idx := block.NewEntityIndex(blocks)
	if commonBlocks(idx, 0, 3) == 0 {
		t.Fatal("same-key profiles not co-blocked")
	}
	if commonBlocks(idx, 0, 4) == 0 {
		t.Fatal("adjacent-key profiles not co-blocked")
	}
}

func TestExtendedMethodsCleanCleanSplit(t *testing.T) {
	c := entity.NewCleanClean(
		[]entity.Profile{oneAttr("miller janes")},
		[]entity.Profile{oneAttr("miller johns")},
	)
	for _, m := range []Method{
		ExtendedQGramsBlocking{},
		ExtendedSortedNeighborhood{},
	} {
		blocks := m.Build(c)
		for i := range blocks.Blocks {
			b := &blocks.Blocks[i]
			if len(b.E1) == 0 || len(b.E2) == 0 {
				t.Fatalf("%s: block without both sides", m.Name())
			}
		}
	}
}

func TestNewMethodNamesUnique(t *testing.T) {
	names := map[string]bool{}
	for _, m := range []Method{
		TokenBlocking{}, QGramsBlocking{}, SuffixArrayBlocking{},
		AttributeClusteringBlocking{}, StandardBlocking{}, SortedNeighborhood{},
		CanopyClustering{}, ExtendedQGramsBlocking{}, ExtendedSortedNeighborhood{},
	} {
		n := m.Name()
		if n == "" || names[n] {
			t.Fatalf("name %q empty or duplicate", n)
		}
		names[n] = true
	}
}

func TestCanopyKeysAreStable(t *testing.T) {
	c := paperexample.Collection()
	blocks := CanopyClustering{Seed: 2}.Build(c)
	for i := range blocks.Blocks {
		if !strings.HasPrefix(blocks.Blocks[i].Key, "canopy-") {
			t.Fatalf("bad canopy key %q", blocks.Blocks[i].Key)
		}
	}
	var keys []string
	for i := range blocks.Blocks {
		keys = append(keys, blocks.Blocks[i].Key)
	}
	if !sort.StringsAreSorted(keys) {
		// Canopy order follows the shuffled seed order; keys need not be
		// sorted — just distinct.
		seen := map[string]bool{}
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("duplicate canopy key %q", k)
			}
			seen[k] = true
		}
	}
}
