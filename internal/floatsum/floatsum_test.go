package floatsum

import (
	"math"
	"math/rand"
	"testing"
)

// TestSumExactCases checks the classic cancellation cases a naive sum gets
// wrong.
func TestSumExactCases(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{2.5}, 2.5},
		{[]float64{1, 1e100, 1, -1e100}, 2},
		// Ten 0.1s: the exact sum 1.0000000000000000555… rounds to 1.0
		// (a naive left-to-right sum yields 0.9999999999999999).
		{[]float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}, 1.0},
	}
	for _, tc := range cases {
		if got := sum(tc.xs); got != tc.want {
			t.Errorf("Sum(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

// TestSumOrderIndependent: any permutation and any partitioning into merged
// accumulators must give bit-identical sums — the property the parallel
// pipeline's thresholds rely on.
func TestSumOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
	}
	want := sum(xs)

	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(xs))
		shuffled := make([]float64, len(xs))
		for i, p := range perm {
			shuffled[i] = xs[p]
		}
		if got := sum(shuffled); got != want {
			t.Fatalf("trial %d: shuffled sum %v ≠ %v", trial, got, want)
		}
		// Partition into k accumulators, merge, compare.
		k := 1 + rng.Intn(8)
		accs := make([]Acc, k)
		for i, x := range shuffled {
			accs[i%k].Add(x)
		}
		var total Acc
		for i := range accs {
			total.Merge(&accs[i])
		}
		if got := total.Sum(); got != want {
			t.Fatalf("trial %d: merged sum %v ≠ %v", trial, got, want)
		}
		if total.Count() != int64(len(xs)) {
			t.Fatalf("trial %d: merged count %d ≠ %d", trial, total.Count(), len(xs))
		}
	}
}

// TestMeanMatchesSum ensures Acc.Mean is Sum/Count and handles the
// degenerate sizes.
func TestMeanMatchesSum(t *testing.T) {
	var a Acc
	if a.Mean() != 0 {
		t.Fatal("empty Mean != 0")
	}
	a.Add(3.5)
	if a.Mean() != 3.5 {
		t.Fatal("Mean singleton")
	}
	xs := []float64{0.1, 0.2, 0.3, 0.7, 1e-17}
	a = Acc{}
	for _, x := range xs {
		a.Add(x)
	}
	if got, want := a.Mean(), sum(xs)/float64(len(xs)); got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

// sum returns the correctly rounded exact sum of xs.
func sum(xs []float64) float64 {
	var a Acc
	for _, x := range xs {
		a.Add(x)
	}
	return a.Sum()
}
