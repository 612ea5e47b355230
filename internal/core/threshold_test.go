package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"metablocking/internal/entity"
	"metablocking/internal/obs"
)

// TestFillWeightsMatchesScalarWeight: for every scheme and every edge of
// every equivalence input, the per-node kernel computes the bits
// weightContext.weight computes. For ECBS and EJS the inputs must hold
// edges whose endpoints tie on |B| (and, for EJS, differ in degree), so the
// canonical order's tie-break is exercised, and edges on which the other
// multiplication order gives another float, so the check could fail.
func TestFillWeightsMatchesScalarWeight(t *testing.T) {
	for _, scheme := range AllSchemes {
		ties, orderMatters := 0, 0
		for name, blocks := range wnpInputs() {
			g := NewGraph(blocks, scheme)
			for id := 0; id < blocks.NumEntities; id++ {
				i := entity.ID(id)
				bi := g.index.NumBlocks(i)
				if bi == 0 {
					continue
				}
				neighbors := g.scanNeighborhood(i)
				weights := g.fillWeights(i, neighbors)
				if len(weights) != len(neighbors) {
					t.Fatalf("%s/%v node %d: %d weights for %d neighbors", name, scheme, i, len(weights), len(neighbors))
				}
				for n, j := range neighbors {
					common, bj := g.sc.cells[j].common, g.index.NumBlocks(j)
					var di, dj int32
					if g.degrees != nil {
						di, dj = g.degrees[i], g.degrees[j]
					}
					want := g.ctx.weight(common, bi, bj, di, dj)
					if math.Float64bits(weights[n]) != math.Float64bits(want) {
						t.Fatalf("%s/%v edge %d-%d: kernel weight %v, weightContext.weight %v", name, scheme, i, j, weights[n], want)
					}
					if bi == bj && (scheme == ECBS || di != dj) {
						ties++
					}
					if g.factor != nil {
						x := common
						if scheme == EJS {
							x = common / (float64(bi) + float64(bj) - common)
						}
						if x*g.factor[i]*g.factor[j] != x*g.factor[j]*g.factor[i] {
							orderMatters++
						}
					}
				}
			}
		}
		if scheme == ECBS || scheme == EJS {
			if ties == 0 {
				t.Errorf("%v: no edge ties on |B| (with distinct degrees for EJS): the tie-break is untested", scheme)
			}
			if orderMatters == 0 {
				t.Errorf("%v: no edge depends on the multiplication order: the canonical order is untested", scheme)
			}
		}
	}
}

// naiveMean is the left-to-right mean, summed at run time.
func naiveMean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestCertifiedMeanFallsBackWhereNaiveFlips pins the case the certificate
// exists for: the naive mean of {0.1, 0.2, 0.3} is 0.20000000000000004 and
// rejects 0.2, the exact one is 0.19999999999999998 and admits it. 0.2 lies
// in the error band, so the threshold must come from the exact mean, and
// the fallback must be counted.
func TestCertifiedMeanFallsBackWhereNaiveFlips(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.3}
	g := NewGraph(dirtyOf(4, []entity.ID{0, 1, 2, 3}), JS)
	if naive := naiveMean(xs); naive != 0.20000000000000004 {
		t.Fatalf("naive mean %v, want 0.20000000000000004", naive)
	}
	if exact := g.meanOf(xs); exact != 0.19999999999999998 {
		t.Fatalf("exact mean %v, want 0.19999999999999998", exact)
	}
	if _, ok := certifiedMean(xs); ok {
		t.Fatal("certifiedMean certified a mean that flips the verdict on 0.2")
	}
	th := g.thresholdOf(nil, 0, []entity.ID{1, 2, 3}, xs)
	if !th.admits(0.2, 2) {
		t.Errorf("threshold %v rejects 0.2; the exact mean admits it", th.w)
	}
	if g.sc.fallbacks != 1 {
		t.Errorf("%d fallbacks counted, want 1", g.sc.fallbacks)
	}
	// A NaN weight or an overflowing sum leaves no band to certify with.
	for _, xs := range [][]float64{{1, math.NaN(), 2}, {1e308, 1e308, 1e308}, {1, math.Inf(1), 2}, {1, math.Inf(1)}} {
		if _, ok := certifiedMean(xs); ok {
			t.Errorf("certifiedMean certified the mean of %v", xs)
		}
	}
}

// TestCertifiedMeanDecidesAsExact: on random weight slices — JS-like
// rationals, ties, values one ulp around each other, magnitudes from 1e-12
// to 1e3 — the threshold thresholdOf derives decides every weight of the
// slice as the exact mean does, and both the certified and the fallback
// branch are taken.
func TestCertifiedMeanDecidesAsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := NewGraph(dirtyOf(2, []entity.ID{0, 1}), JS)
	draws := []func() float64{
		func() float64 { // Jaccard of c shared blocks out of bi and bj
			c := 1 + rng.Intn(5)
			bi, bj := c+rng.Intn(20), c+rng.Intn(20)
			return float64(c) / (float64(bi) + float64(bj) - float64(c))
		},
		func() float64 { return rng.Float64() * math.Pow(10, float64(rng.Intn(16)-12)) },
		func() float64 { return float64(1+rng.Intn(3)) / 10 },
	}
	certified, fellBack := 0, 0
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, 0, n)
		draw := draws[trial%len(draws)]
		for len(xs) < n {
			switch x := draw(); rng.Intn(4) {
			case 0: // a tie with an earlier weight
				if len(xs) > 0 {
					x = xs[rng.Intn(len(xs))]
				}
				xs = append(xs, x)
			case 1: // a neighbor one ulp away
				xs = append(xs, x, math.Nextafter(x, math.Inf(1)))
			default:
				xs = append(xs, x)
			}
		}
		if trial%5 == 0 { // a weight at the naive mean itself
			xs = append(xs, naiveMean(xs))
		}
		exact := g.meanOf(xs)
		before := g.sc.fallbacks
		th := g.thresholdOf(nil, 0, make([]entity.ID, len(xs)), xs)
		if g.sc.fallbacks > before {
			fellBack++
		} else {
			certified++
		}
		for _, x := range xs {
			if th.admits(x, 1) != (x >= exact) {
				t.Fatalf("weights %v: threshold %v and exact mean %v disagree on %v", xs, th.w, exact, x)
			}
		}
	}
	if certified == 0 || fellBack == 0 {
		t.Fatalf("%d certified and %d fallback thresholds: a branch is untested", certified, fellBack)
	}
}

// TestExactMeanFallbacksRepeat: prune.exact_mean_fallbacks counts the
// neighborhoods whose naive mean certifiedMean leaves uncertified, the same
// at every worker count and for every weight-based algorithm, and it is
// positive on the tied cliques, where every weight equals every mean.
func TestExactMeanFallbacksRepeat(t *testing.T) {
	for name, blocks := range wnpInputs() {
		for _, scheme := range AllSchemes {
			want := int64(0)
			NewGraph(blocks, scheme).ForEachNode(func(_ entity.ID, _ []entity.ID, weights []float64) {
				if _, ok := certifiedMean(weights); !ok {
					want++
				}
			})
			if (name == "tied-dirty" || name == "tied-clean") && want == 0 {
				t.Errorf("%s/%v: no fallback on a tied clique", name, scheme)
			}
			for _, alg := range []Algorithm{WNP, RedefinedWNP, ReciprocalWNP} {
				for _, workers := range []int{0, 1, 2, 3, 7} {
					m := obs.NewMetrics()
					Run(blocks, Config{Scheme: scheme, Algorithm: alg, Workers: workers, Obs: obs.New(context.Background(), obs.WithMetrics(m))})
					if got := m.Counter(obs.CtrExactMeanFallbacks).Value(); got != want {
						t.Errorf("%s/%v/%v workers=%d: %d exact-mean fallbacks, want %d", name, scheme, alg, workers, got, want)
					}
				}
			}
		}
	}
}
