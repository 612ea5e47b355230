package metablocking

import (
	"context"
	"reflect"
	"testing"
)

func exampleCollection() (*Collection, *GroundTruth) {
	mk := func(pairs ...string) Profile {
		var p Profile
		for i := 0; i+1 < len(pairs); i += 2 {
			p.Add(pairs[i], pairs[i+1])
		}
		return p
	}
	c := NewDirty([]Profile{
		mk("FullName", "Jack Lloyd Miller", "job", "autoseller"),
		mk("name", "Erick Green", "profession", "vehicle vendor"),
		mk("fullname", "Jack Miller", "Work", "car vendor-seller"),
		mk("name", "Erick Lloyd Green", "profession", "car trader"),
		mk("Fullname", "James Jordan", "job", "car seller"),
		mk("name", "Nick Papas", "profession", "car dealer"),
	})
	gt := NewGroundTruth([]Pair{{A: 0, B: 2}, {A: 1, B: 3}})
	return c, gt
}

func TestPipelineDefaults(t *testing.T) {
	c, gt := exampleCollection()
	res, err := Pipeline{}.Run(c) // Token Blocking + purging + JS/WEP... (ARCS is zero value)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no comparisons retained")
	}
	rep := Evaluate(res.Pairs, gt, res.InputComparisons)
	if rep.PC() == 0 {
		t.Fatal("all duplicates lost")
	}
	if res.OTime <= 0 {
		t.Fatal("OTime not measured")
	}
}

func TestPipelineReciprocalWNP(t *testing.T) {
	c, gt := exampleCollection()
	// Without purging this is exactly the paper example: Reciprocal WNP
	// retains the 4 comparisons of Figure 9, including both duplicates.
	res, err := Pipeline{Scheme: JS, Algorithm: ReciprocalWNP, DisablePurging: true}.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 4 {
		t.Fatalf("retained %d comparisons, want 4 (Figure 9)", len(res.Pairs))
	}
	rep := Evaluate(res.Pairs, gt, res.InputComparisons)
	if rep.PC() != 1.0 {
		t.Fatalf("PC = %v, want 1.0", rep.PC())
	}
	if rep.PQ() != 0.5 {
		t.Fatalf("PQ = %v, want 0.5", rep.PQ())
	}

	// With default purging the oversized "car" block (4 of 6 profiles)
	// is discarded first, and Reciprocal WNP keeps only the two
	// duplicate comparisons: perfect precision at full recall.
	purged, err := Pipeline{Scheme: JS, Algorithm: ReciprocalWNP}.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	prep := Evaluate(purged.Pairs, gt, purged.InputComparisons)
	if prep.PC() != 1.0 || prep.PQ() != 1.0 {
		t.Fatalf("with purging: PC = %v PQ = %v, want 1.0 and 1.0", prep.PC(), prep.PQ())
	}
}

func TestPipelineWithFiltering(t *testing.T) {
	c, _ := exampleCollection()
	full, err := Pipeline{Scheme: JS, Algorithm: WEP}.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := Pipeline{Scheme: JS, Algorithm: WEP, FilterRatio: 0.5}.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if filtered.InputComparisons >= full.InputComparisons {
		t.Fatalf("filtering did not shrink the input: %d vs %d",
			filtered.InputComparisons, full.InputComparisons)
	}
}

func TestPipelineGraphFree(t *testing.T) {
	c, gt := exampleCollection()
	res, err := Pipeline{GraphFree: true, FilterRatio: 0.55}.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	rep := Evaluate(res.Pairs, gt, res.InputComparisons)
	if rep.PC() == 0 {
		t.Fatal("graph-free lost all duplicates")
	}
}

func TestPipelineValidation(t *testing.T) {
	c, _ := exampleCollection()
	if _, err := (Pipeline{}).Run(nil); err == nil {
		t.Error("nil collection accepted")
	}
	if _, err := (Pipeline{}).Run(NewDirty(nil)); err == nil {
		t.Error("empty collection accepted")
	}
	if _, err := (Pipeline{FilterRatio: 1.5}).Run(c); err == nil {
		t.Error("out-of-range ratio accepted")
	}
	if _, err := (Pipeline{GraphFree: true}).Run(c); err == nil {
		t.Error("graph-free without ratio accepted")
	}
}

func TestMatchesAndCluster(t *testing.T) {
	c, _ := exampleCollection()
	res, err := Pipeline{Scheme: JS, Algorithm: ReciprocalWNP}.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	// The example duplicates share 2 of 7 distinct tokens → Jaccard 2/7.
	m := NewJaccardMatcher(c, 0.25)
	matches := Matches(m, res.Pairs)
	if len(matches) == 0 {
		t.Fatal("matcher found nothing")
	}
	clusters := Cluster(c, matches)
	if len(clusters) == 0 {
		t.Fatal("no clusters formed")
	}
	for _, cl := range clusters {
		if len(cl) < 2 {
			t.Fatal("singleton cluster emitted")
		}
	}
}

func TestGenerateDatasetAllIDs(t *testing.T) {
	for _, id := range []DatasetID{D1C, D2C, D3C, D1D, D2D, D3D} {
		ds := GenerateDataset(id, 0.02)
		if ds.Collection.Size() == 0 || ds.GroundTruth.Size() == 0 {
			t.Fatalf("dataset %v empty", id)
		}
		if err := ds.GroundTruth.Validate(ds.Collection); err != nil {
			t.Fatalf("dataset %v: %v", id, err)
		}
	}
}

func TestPipelineEndToEndOnSyntheticData(t *testing.T) {
	ds := GenerateDataset(D1C, 0.05)
	for _, alg := range []Algorithm{CEP, CNP, WEP, WNP, RedefinedCNP, ReciprocalCNP, RedefinedWNP, ReciprocalWNP} {
		res, err := Pipeline{FilterRatio: 0.8, Scheme: JS, Algorithm: alg}.Run(ds.Collection)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		rep := Evaluate(res.Pairs, ds.GroundTruth, res.InputComparisons)
		if rep.PC() < 0.5 {
			t.Errorf("%v: PC = %.3f implausibly low", alg, rep.PC())
		}
		if rep.RR() < 0 {
			t.Errorf("%v: negative reduction ratio", alg)
		}
	}
}

func TestBuildBlocksAndPersistence(t *testing.T) {
	ds := GenerateDataset(D1C, 0.03)
	blocks := BuildBlocks(ds.Collection, nil, 0.8)
	if blocks.Len() == 0 {
		t.Fatal("no blocks built")
	}
	path := t.TempDir() + "/blocks.bin"
	if err := SaveBlocks(path, blocks); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBlocks(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != blocks.Len() || loaded.Comparisons() != blocks.Comparisons() {
		t.Fatal("loaded blocks differ")
	}
	// Meta-blocking over loaded blocks must equal meta-blocking over the
	// originals.
	a := NewProgressiveScheduler(blocks, JS)
	b := NewProgressiveScheduler(loaded, JS)
	if a.Len() != b.Len() {
		t.Fatalf("schedules differ: %d vs %d", a.Len(), b.Len())
	}
}

func TestRunSupervisedFacade(t *testing.T) {
	ds := GenerateDataset(D1C, 0.05)
	blocks := BuildBlocks(ds.Collection, TokenBlocking{}, 0.8)
	res, err := RunSupervised(blocks, ds.GroundTruth, SupervisedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Evaluate(res.Pairs, ds.GroundTruth, blocks.Comparisons())
	if rep.PC() < 0.7 {
		t.Fatalf("supervised PC = %.3f", rep.PC())
	}
}

func TestProgressiveSchedulerFacade(t *testing.T) {
	ds := GenerateDataset(D1C, 0.03)
	blocks := BuildBlocks(ds.Collection, nil, 0)
	s := NewProgressiveScheduler(blocks, ARCS)
	if s.Len() == 0 {
		t.Fatal("empty schedule")
	}
	first, ok := s.Next()
	if !ok {
		t.Fatal("no first comparison")
	}
	for {
		c, ok := s.Next()
		if !ok {
			break
		}
		if c.Weight > first.Weight {
			t.Fatal("schedule not descending")
		}
	}
}

func TestPipelineParallelWorkers(t *testing.T) {
	ds := GenerateDataset(D1D, 0.05)
	serial, err := Pipeline{FilterRatio: 0.8, Scheme: JS, Algorithm: RedefinedWNP}.Run(ds.Collection)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Pipeline{FilterRatio: 0.8, Scheme: JS, Algorithm: RedefinedWNP, Workers: 4}.Run(ds.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Pairs) != len(parallel.Pairs) {
		t.Fatalf("parallel pipeline differs: %d vs %d pairs", len(parallel.Pairs), len(serial.Pairs))
	}
}

// TestWorkerCountNeverChangesTheAnswer: the pipeline returns the same pairs,
// in the same order, for every worker count — 0 included — and with Original
// Edge Weighting, for every pruning algorithm on both tasks, with and
// without Block Filtering.
func TestWorkerCountNeverChangesTheAnswer(t *testing.T) {
	ctx := context.Background()
	for _, id := range []DatasetID{D1D, D1C} {
		ds := GenerateDataset(id, 0.03)
		for _, ratio := range []float64{0, 0.8} {
			for _, alg := range []Algorithm{CEP, CNP, WEP, WNP, RedefinedCNP, ReciprocalCNP, RedefinedWNP, ReciprocalWNP} {
				var want []Pair
				for _, p := range []Pipeline{
					{Workers: 0}, {Workers: 1}, {Workers: 2}, {Workers: 3}, {Workers: -1},
					{Workers: 0, OriginalWeighting: true}, {Workers: 4, OriginalWeighting: true},
				} {
					p.FilterRatio, p.Scheme, p.Algorithm = ratio, JS, alg
					res, err := p.RunContext(ctx, ds.Collection)
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = res.Pairs
						if len(want) == 0 {
							t.Fatalf("%s r=%.1f %v: nothing retained", ds.Name, ratio, alg)
						}
					} else if !reflect.DeepEqual(res.Pairs, want) {
						t.Fatalf("%s r=%.1f %v workers=%d original=%v: %d pairs differ from workers=0's %d",
							ds.Name, ratio, alg, p.Workers, p.OriginalWeighting, len(res.Pairs), len(want))
					}
				}
			}
		}
	}
}
