package blocking

import (
	"reflect"
	"testing"

	"metablocking/internal/block"
	"metablocking/internal/datagen"
	"metablocking/internal/entity"
)

func TestMinHashIdenticalProfilesAlwaysCollide(t *testing.T) {
	c := entity.NewDirty([]entity.Profile{
		oneAttr("alpha beta gamma delta"),
		oneAttr("alpha beta gamma delta"),
	})
	blocks := MinHashBlocking{}.Build(c)
	if blocks.Len() == 0 {
		t.Fatal("identical profiles share no band")
	}
	idx := block.NewEntityIndex(blocks)
	// Identical token sets → identical signatures → all 8 bands shared.
	if got := commonBlocks(idx, 0, 1); got != 8 {
		t.Fatalf("identical profiles share %d bands, want 8", got)
	}
}

func TestMinHashDissimilarProfilesRarelyCollide(t *testing.T) {
	c := entity.NewDirty([]entity.Profile{
		oneAttr("alpha beta gamma delta"),
		oneAttr("epsilon zeta eta theta"),
	})
	blocks := MinHashBlocking{}.Build(c)
	// Disjoint token sets: a collision would need a full band of hash
	// ties, essentially impossible.
	if blocks.Len() != 0 {
		t.Fatalf("disjoint profiles collided: %+v", blocks.Blocks)
	}
}

func TestMinHashHighSimilarityCollides(t *testing.T) {
	// 7 of 8 tokens shared → s = 7/9 ≈ 0.78; with 8 bands × 4 rows the
	// collision probability is ~0.96.
	c := entity.NewDirty([]entity.Profile{
		oneAttr("a b c d e f g h"),
		oneAttr("a b c d e f g x"),
	})
	blocks := MinHashBlocking{}.Build(c)
	if blocks.Len() == 0 {
		t.Fatal("highly similar profiles share no band")
	}
}

func TestMinHashDeterministicPerSeed(t *testing.T) {
	ds := datagen.D1C(0.02)
	a := MinHashBlocking{Seed: 3}.Build(ds.Collection)
	b := MinHashBlocking{Seed: 3}.Build(ds.Collection)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different blocks")
	}
}

func TestMinHashRecallOnSyntheticData(t *testing.T) {
	ds := datagen.D1C(0.05)
	blocks := MinHashBlocking{Bands: 16, Rows: 3}.Build(ds.Collection)
	det := blocks.DetectedDuplicates(ds.GroundTruth)
	recall := float64(det) / float64(ds.GroundTruth.Size())
	// Duplicates in D1 share only part of their tokens (noise, filler),
	// so LSH recall is below Token Blocking's but must stay substantial
	// with a recall-oriented banding.
	if recall < 0.5 {
		t.Fatalf("MinHash recall = %.3f, want ≥ 0.5", recall)
	}
	t.Logf("MinHash(16×3) recall %.3f over %d blocks (Token Blocking: ~0.99)", recall, blocks.Len())
	// And it must be far cheaper than brute force.
	if blocks.Comparisons() >= ds.Collection.BruteForceComparisons()/10 {
		t.Fatalf("MinHash blocks too dense: %d comparisons", blocks.Comparisons())
	}
}

func TestMinHashCleanCleanSplit(t *testing.T) {
	c := entity.NewCleanClean(
		[]entity.Profile{oneAttr("alpha beta gamma delta")},
		[]entity.Profile{oneAttr("alpha beta gamma delta")},
	)
	blocks := MinHashBlocking{}.Build(c)
	if blocks.Len() == 0 {
		t.Fatal("cross-source duplicates share no band")
	}
	for i := range blocks.Blocks {
		b := &blocks.Blocks[i]
		if len(b.E1) == 0 || len(b.E2) == 0 {
			t.Fatal("clean-clean band block missing a side")
		}
	}
}
