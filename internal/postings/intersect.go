package postings

// Intersection primitives over ascending []int32 posting lists. Two regimes:
//
//   - comparable lengths: a branch-light linear merge, the fastest shape when
//     both lists advance at similar rates;
//   - skewed lengths (≥ gallopRatio): gallop (exponential search + binary
//     search) through the long list for each element of the short list,
//     turning O(m+n) into O(m log(n/m)).
//
// All functions require strictly ascending input, which every producer in
// this repo guarantees by construction.

// gallopRatio is the length skew at which galloping beats the linear merge.
// Below it the merge's predictable branches win; the crossover is broad and
// flat, so a power of two in the 8–16 range is fine.
const gallopRatio = 8

// advance returns the smallest index i in [lo, len(xs)) with xs[i] >= v,
// galloping from lo and then binary-searching the bracketed window.
func advance(xs []int32, lo int, v int32) int {
	if lo >= len(xs) || xs[lo] >= v {
		return lo
	}
	// Gallop: find hi with xs[hi] >= v, doubling the step from lo.
	step := 1
	hi := lo + 1
	for hi < len(xs) && xs[hi] < v {
		lo = hi
		step <<= 1
		hi += step
	}
	if hi > len(xs) {
		hi = len(xs)
	}
	// Binary search in (lo, hi): xs[lo] < v, xs[hi] >= v (or hi == len).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// IntersectCount returns |a ∩ b|.
func IntersectCount(a, b []int32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	if len(b) >= gallopRatio*len(a) {
		return gallopCount(a, b)
	}
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x == y {
			n++
			i++
			j++
		} else if x < y {
			i++
		} else {
			j++
		}
	}
	return n
}

func gallopCount(short, long []int32) int {
	n, j := 0, 0
	for _, v := range short {
		j = advance(long, j, v)
		if j == len(long) {
			break
		}
		if long[j] == v {
			n++
			j++
		}
	}
	return n
}

// First returns the smallest common element of a and b, or -1 when the
// intersection is empty — the least-common-block ID used by LeCoBI.
func First(a, b []int32) int32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return -1
	}
	if len(b) >= gallopRatio*len(a) {
		j := 0
		for _, v := range a {
			j = advance(b, j, v)
			if j == len(b) {
				return -1
			}
			if b[j] == v {
				return v
			}
		}
		return -1
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x == y {
			return x
		}
		if x < y {
			i++
		} else {
			j++
		}
	}
	return -1
}

// ForEachCommon calls fn for every common element in ascending order.
func ForEachCommon(a, b []int32, fn func(int32)) {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return
	}
	if len(b) >= gallopRatio*len(a) {
		j := 0
		for _, v := range a {
			j = advance(b, j, v)
			if j == len(b) {
				return
			}
			if b[j] == v {
				fn(v)
				j++
			}
		}
		return
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x == y {
			fn(x)
			i++
			j++
		} else if x < y {
			i++
		} else {
			j++
		}
	}
}
