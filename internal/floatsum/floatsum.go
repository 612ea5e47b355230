// Package floatsum provides exact (correctly rounded) float64 summation
// after Shewchuk's adaptive expansion arithmetic — the algorithm behind
// Python's math.fsum.
//
// Meta-blocking derives pruning thresholds from means of edge weights
// (WEP's global mean, WNP's neighborhood means). Float addition is not
// associative, so a naive running sum would make threshold decisions on
// boundary edges depend on enumeration order — and therefore differ between
// worker counts. The exact sum is a property of the *multiset* of weights
// alone: every partitioning of the inputs across workers yields
// bit-identical thresholds, without materializing or sorting the weights.
//
// WEP's mean is always summed here. A neighborhood mean is summed here only
// where it can change a verdict: internal/core first takes the naive mean
// with its rounding-error band, and keeps it when no weight of the
// neighborhood lies inside the band, since every such weight then compares
// with it as with the exact mean (core's certifiedMean).
package floatsum

// Acc accumulates an exact float64 sum as a list of non-overlapping
// partials. The zero value is an empty sum. Acc is not safe for concurrent
// use; give each worker its own and combine with Merge. Like math.fsum,
// the accumulator assumes no intermediate sum overflows — edge weights are
// bounded by block counts, far from the float64 range.
type Acc struct {
	partials []float64
	// n counts the accumulated values, so Mean needs no second counter.
	n int64
}

// Add folds x into the accumulator, maintaining the non-overlapping
// partials invariant (each partial is smaller in magnitude than the next's
// unit in the last place). Each step is Knuth's branchless TwoSum (6 flops,
// exact for any operand order) rather than the compare-and-swap Fast2Sum:
// the magnitude comparison is a data-dependent branch the CPU cannot
// predict, and Shewchuk's grow-expansion theorem guarantees TwoSum yields
// the same non-overlapping, increasing-magnitude expansion — so Sum()
// rounds to the identical float.
func (a *Acc) Add(x float64) {
	a.n++
	ps := a.partials[:0]
	for _, y := range a.partials {
		hi := x + y
		yv := hi - x
		xv := hi - yv
		lo := (y - yv) + (x - xv)
		if lo != 0 {
			ps = append(ps, lo)
		}
		x = hi
	}
	a.partials = append(ps, x)
}

// Merge folds the other accumulator's partials into a. Because the partials
// represent the other sum exactly, merging loses nothing: the combined
// accumulator holds the exact sum of both input multisets.
func (a *Acc) Merge(b *Acc) {
	for _, p := range b.partials {
		a.Add(p)
	}
	a.n += b.n - int64(len(b.partials))
}

// Reset empties the accumulator, keeping its capacity.
func (a *Acc) Reset() {
	a.partials = a.partials[:0]
	a.n = 0
}

// Count returns the number of values accumulated with Add (Merge carries
// counts over).
func (a *Acc) Count() int64 { return a.n }

// Sum returns the correctly rounded value of the exact accumulated sum.
// The rounding step follows CPython's math.fsum: partials are summed from
// the largest down, and ties halfway between two floats are resolved by
// inspecting the next partial so the result is the true nearest float.
func (a *Acc) Sum() float64 {
	ps := a.partials
	n := len(ps)
	if n == 0 {
		return 0
	}
	n--
	hi := ps[n]
	var lo float64
	for n > 0 {
		x := hi
		n--
		y := ps[n]
		hi = x + y
		yr := hi - x
		lo = y - yr
		if lo != 0 {
			break
		}
	}
	// Halfway correction: if the discarded lo would round hi away from
	// zero and the remaining partials push the same way, nudge hi by one
	// ulp (only when the nudge is exact, i.e. hi+2·lo rounds to a float
	// whose difference from hi is exactly 2·lo).
	if n > 0 && ((lo < 0 && ps[n-1] < 0) || (lo > 0 && ps[n-1] > 0)) {
		y := lo * 2
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	return hi
}

// Mean returns Sum()/Count(), or 0 for an empty accumulator.
func (a *Acc) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.Sum() / float64(a.n)
}
