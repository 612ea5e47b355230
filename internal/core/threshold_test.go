package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"metablocking/internal/entity"
	"metablocking/internal/obs"
)

// fig4Weight evaluates one edge's weight straight from the formulas of
// Fig. 4, with the logarithms taken per edge and the operands ordered by
// (|B|, degree) so the weight does not depend on the endpoint it is
// evaluated from. It restates internal/oracle's schemeWeight, which this
// package's tests cannot import.
func fig4Weight(scheme Scheme, common float64, bi, bj int, di, dj int32, numBlocks, numNodes float64) float64 {
	if bi > bj || (bi == bj && di > dj) {
		bi, bj = bj, bi
		di, dj = dj, di
	}
	switch scheme {
	case ARCS, CBS:
		return common
	case ECBS:
		return common * math.Log(numBlocks/float64(bi)) * math.Log(numBlocks/float64(bj))
	case JS:
		return common / (float64(bi) + float64(bj) - common)
	case EJS:
		js := common / (float64(bi) + float64(bj) - common)
		return js * math.Log(numNodes/float64(di)) * math.Log(numNodes/float64(dj))
	}
	panic("unknown scheme")
}

// TestFillWeightsMatchesScalarWeight: for every scheme and every edge of
// every equivalence input, the per-node kernel computes the bits
// fig4Weight computes. For ECBS and EJS the inputs must hold edges whose
// endpoints tie on |B| (and, for EJS, differ in degree), so the canonical
// order's tie-break is exercised, and edges on which the other
// multiplication order gives another float, so the check could fail.
func TestFillWeightsMatchesScalarWeight(t *testing.T) {
	for _, scheme := range AllSchemes {
		ties, orderMatters := 0, 0
		for name, blocks := range wnpInputs() {
			g := NewGraph(blocks, scheme)
			numBlocks, numNodes := float64(len(blocks.Blocks)), float64(g.NumNodes())
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
					want := fig4Weight(scheme, common, bi, bj, di, dj, numBlocks, numNodes)
					if math.Float64bits(weights[n]) != math.Float64bits(want) {
						t.Fatalf("%s/%v edge %d-%d: kernel weight %v, Fig. 4 weight %v", name, scheme, i, j, weights[n], want)
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
	if _, ok := certifiedMean(xs, false); ok {
		t.Fatal("certifiedMean certified a mean that flips the verdict on 0.2")
	}
	th := g.thresholdOf(nil, 0, []entity.ID{1, 2, 3}, xs)
	if !th.admits(0.2, 2) {
		t.Errorf("threshold %v rejects 0.2; the exact mean admits it", th.w)
	}
	if g.sc.fallbacks != 1 {
		t.Errorf("%d fallbacks counted, want 1", g.sc.fallbacks)
	}
	// A NaN weight or an overflowing sum leaves no band to certify with,
	// integer-valued or not.
	for _, xs := range [][]float64{{1, math.NaN(), 2}, {1e308, 1e308, 1e308}, {1, math.Inf(1), 2}, {1, math.Inf(1)}} {
		for _, integral := range []bool{false, true} {
			if _, ok := certifiedMean(xs, integral); ok {
				t.Errorf("certifiedMean(integral=%v) certified the mean of %v", integral, xs)
			}
		}
	}
	// Past Σ|x| = 2⁵³ a naive sum of integers may round, so the integral
	// shortcut must leave the verdict to the band, which refuses a weight
	// at the mean.
	if _, ok := certifiedMean([]float64{0x1p53, 0x1p53, 0x1p53}, true); ok {
		t.Error("certifiedMean certified integers summing past 2⁵³ with a weight at the mean")
	}
}

// TestCertifiedMeanDecidesAsExact: on random weight slices — JS-like
// rationals, ties, values one ulp around each other, magnitudes from 1e-12
// to 1e3, and CBS-like small integers with a weight at their mean — the
// threshold thresholdOf derives decides every weight of the slice as the
// exact mean does, both the certified and the fallback branch are taken,
// and a CBS graph never falls back.
func TestCertifiedMeanDecidesAsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	gJS := NewGraph(dirtyOf(2, []entity.ID{0, 1}), JS)
	gCBS := NewGraph(dirtyOf(2, []entity.ID{0, 1}), CBS)
	integer := func() float64 { return float64(1 + rng.Intn(5)) }
	draws := []func() float64{
		integer,
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
		draw, integral := draws[trial%len(draws)], trial%len(draws) == 0
		for len(xs) < n {
			switch x := draw(); rng.Intn(4) {
			case 0: // a tie with an earlier weight
				if len(xs) > 0 {
					x = xs[rng.Intn(len(xs))]
				}
				xs = append(xs, x)
			case 1: // a neighbor one ulp (for integers: one) away
				next := math.Nextafter(x, math.Inf(1))
				if integral {
					next = x + 1
				}
				xs = append(xs, x, next)
			default:
				xs = append(xs, x)
			}
		}
		g := gJS
		switch {
		case integral: // two more integers, one at the mean
			// r pads the sum to a multiple of n+1, so that the mean m of
			// xs ∪ {r} is an integer, and xs ∪ {r, m} keeps mean m.
			s := 0
			for _, x := range xs {
				s += int(x)
			}
			r := len(xs) + 1 - s%(len(xs)+1)
			m := float64((s + r) / (len(xs) + 1))
			xs = append(xs, float64(r), m)
			g = gCBS
		case trial%5 == 0: // a weight at the naive mean itself
			xs = append(xs, naiveMean(xs))
		}
		exact := g.meanOf(xs)
		before := g.sc.fallbacks
		th := g.thresholdOf(nil, 0, make([]entity.ID, len(xs)), xs)
		switch {
		case g.sc.fallbacks == before:
			certified++
		case g == gCBS:
			t.Fatalf("integer weights %v: the CBS threshold fell back to the exact mean", xs)
		default:
			fellBack++
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
// at every worker count and for every weight-based algorithm. It is zero
// for CBS, whose integer weights sum exactly, and positive for every other
// scheme on the tied cliques, where every weight equals every mean.
func TestExactMeanFallbacksRepeat(t *testing.T) {
	for name, blocks := range wnpInputs() {
		for _, scheme := range AllSchemes {
			want := int64(0)
			NewGraph(blocks, scheme).ForEachNode(func(_ entity.ID, _ []entity.ID, weights []float64) {
				if _, ok := certifiedMean(weights, scheme == CBS); !ok {
					want++
				}
			})
			if scheme == CBS && want != 0 {
				t.Errorf("%s/%v: %d fallbacks on integer weights", name, scheme, want)
			}
			if scheme != CBS && (name == "tied-dirty" || name == "tied-clean") && want == 0 {
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
