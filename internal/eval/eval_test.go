package eval

import (
	"math"
	"testing"
	"time"

	"metablocking/internal/blocking"
	"metablocking/internal/entity"
	"metablocking/internal/paperexample"
)

func TestReportMeasures(t *testing.T) {
	r := Report{Comparisons: 100, Detected: 8, Duplicates: 10, Baseline: 1000}
	if r.PC() != 0.8 {
		t.Errorf("PC = %v, want 0.8", r.PC())
	}
	if r.PQ() != 0.08 {
		t.Errorf("PQ = %v, want 0.08", r.PQ())
	}
	if r.RR() != 0.9 {
		t.Errorf("RR = %v, want 0.9", r.RR())
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestReportZeroDivisions(t *testing.T) {
	var r Report
	if r.PC() != 0 || r.PQ() != 0 || r.RR() != 0 {
		t.Fatal("zero-value report must not divide by zero")
	}
}

func TestEvaluateBlocksPaperExample(t *testing.T) {
	c := blocking.TokenBlocking{}.Build(paperexample.Collection())
	gt := paperexample.GroundTruth()
	base := paperexample.Collection().BruteForceComparisons() // 15
	r := EvaluateBlocks(c, gt, base)
	if r.Comparisons != 13 {
		t.Errorf("‖B‖ = %d, want 13", r.Comparisons)
	}
	if r.PC() != 1.0 {
		t.Errorf("PC = %v, want 1 (both duplicates co-occur)", r.PC())
	}
	if math.Abs(r.PQ()-2.0/13.0) > 1e-12 {
		t.Errorf("PQ = %v, want 2/13", r.PQ())
	}
	if math.Abs(r.RR()-(1-13.0/15.0)) > 1e-12 {
		t.Errorf("RR = %v, want 2/15", r.RR())
	}
}

func TestEvaluatePairsCountsRedundant(t *testing.T) {
	gt := entity.NewGroundTruth([]entity.Pair{{A: 0, B: 1}})
	pairs := []entity.Pair{
		entity.MakePair(0, 1),
		entity.MakePair(0, 1), // redundant: counted in ‖B'‖, not in |D|
		entity.MakePair(2, 3),
	}
	r := EvaluatePairs(pairs, gt, 10)
	if r.Comparisons != 3 {
		t.Errorf("‖B'‖ = %d, want 3", r.Comparisons)
	}
	if r.Detected != 1 {
		t.Errorf("|D(B')| = %d, want 1", r.Detected)
	}
	if r.RR() != 0.7 {
		t.Errorf("RR = %v, want 0.7", r.RR())
	}
}

// TestEvaluatePairsEntityFlags exercises the per-entity "has a duplicate"
// shortcut in front of the ground-truth lookup: it must not change what
// counts as detected.
func TestEvaluatePairsEntityFlags(t *testing.T) {
	gt := entity.NewGroundTruth([]entity.Pair{{A: 0, B: 1}, {A: 1, B: 4}, {A: 2, B: 3}})
	for _, tc := range []struct {
		name     string
		gt       *entity.GroundTruth
		pairs    []entity.Pair
		detected int
	}{
		{"repeated and reversed entries count once", gt,
			[]entity.Pair{{A: 0, B: 1}, {A: 1, B: 0}, {A: 0, B: 1}, {A: 4, B: 1}, {A: 3, B: 2}, {A: 2, B: 3}}, 3},
		{"both endpoints flagged but not a duplicate pair", gt,
			[]entity.Pair{{A: 0, B: 4}, {A: 1, B: 2}, {A: 3, B: 4}, {A: 0, B: 1}}, 1},
		{"IDs above the largest ground-truth ID", gt,
			[]entity.Pair{{A: 4, B: 5}, {A: 900, B: 901}, {A: 1, B: 1 << 30}, {A: 1, B: 4}}, 1},
		{"empty ground truth", entity.NewGroundTruth(nil),
			[]entity.Pair{{A: 0, B: 1}, {A: 2, B: 3}}, 0},
		{"empty pairs", gt, nil, 0},
		{"negative IDs in the ground truth", entity.NewGroundTruth([]entity.Pair{{A: -1, B: 2}, {A: -3, B: -2}, {A: 2, B: 5}}),
			[]entity.Pair{{A: 2, B: 5}, {A: 1, B: 2}}, 1},
		// The flags are sized by the retained IDs, not by a stray truth line.
		{"ground-truth IDs far above every retained ID", entity.NewGroundTruth([]entity.Pair{{A: 0, B: 1}, {A: 0, B: 1<<31 - 1}, {A: 1<<31 - 2, B: 1<<31 - 1}}),
			[]entity.Pair{{A: 0, B: 1}, {A: 0, B: 3}}, 1},
	} {
		r := EvaluatePairs(tc.pairs, tc.gt, 100)
		if r.Detected != tc.detected || r.Comparisons != int64(len(tc.pairs)) || r.Duplicates != tc.gt.Size() {
			t.Errorf("%s: detected %d of %d duplicates in %d comparisons, want %d of %d in %d",
				tc.name, r.Detected, r.Duplicates, r.Comparisons, tc.detected, tc.gt.Size(), len(tc.pairs))
		}
	}
}

func TestMeans(t *testing.T) {
	if Mean(nil) != 0 || MeanInt64(nil) != 0 || MeanDuration(nil) != 0 {
		t.Fatal("empty means must be zero")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean broken")
	}
	if MeanInt64([]int64{2, 4}) != 3 {
		t.Fatal("MeanInt64 broken")
	}
	if MeanDuration([]time.Duration{time.Second, 3 * time.Second}) != 2*time.Second {
		t.Fatal("MeanDuration broken")
	}
}

// TestAccumulatorChunked: counting a list in chunks, concurrently, and
// merging the counts in any order gives EvaluatePairs' report — a ground
// truth pair found in several chunks counts once — and the accumulator's
// index stays small when the ground truth names a huge ID.
func TestAccumulatorChunked(t *testing.T) {
	var truth, pairs []entity.Pair
	for i := int32(0); i < 300; i++ {
		truth = append(truth, entity.Pair{A: i, B: i + 1000})
		for j := int32(0); j < 5; j++ {
			pairs = append(pairs, entity.Pair{A: i, B: i + 998 + j}) // j == 2 is true
		}
		pairs = append(pairs, entity.Pair{A: i + 1000, B: i}) // again, reversed
	}
	truth = append(truth, entity.Pair{A: 1<<31 - 2, B: 1<<31 - 1})
	pairs = append(pairs, entity.Pair{A: 1<<31 - 2, B: 1<<31 - 1})
	gt := entity.NewGroundTruth(truth)
	want := EvaluatePairs(pairs, gt, 1e6)
	if want.Detected != 301 || want.Comparisons != int64(len(pairs)) {
		t.Fatalf("EvaluatePairs: %+v", want)
	}
	a := NewAccumulator(gt)
	if len(a.start) > 64*len(truth)+1<<16+1 {
		t.Fatalf("index of %d entries for %d ground-truth pairs", len(a.start), len(truth))
	}
	type counted struct {
		n     int64
		found []entity.Pair
	}
	results := make(chan counted)
	const chunk = 97
	chunks := 0
	for lo := 0; lo < len(pairs); lo += chunk {
		chunks++
		go func(c []entity.Pair) {
			n, found := a.Count(c)
			results <- counted{n, found}
		}(pairs[lo:min(lo+chunk, len(pairs))])
	}
	for ; chunks > 0; chunks-- {
		r := <-results
		a.Merge(r.n, r.found)
	}
	if got := a.Report(1e6); got != want {
		t.Fatalf("chunked report %+v, EvaluatePairs %+v", got, want)
	}
}
