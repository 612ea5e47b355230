package postings

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randAscending builds a strictly ascending list of n values drawn from
// [0, span) using rng.
func randAscending(rng *rand.Rand, n, span int) []int32 {
	if n > span {
		n = span
	}
	seen := make(map[int32]struct{}, n)
	out := make([]int32, 0, n)
	for len(out) < n {
		v := int32(rng.Intn(span))
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func TestBuilder(t *testing.T) {
	var b Builder
	if b.Len() != 0 || b.Last() != -1 {
		t.Fatal("zero Builder should be empty")
	}
	ids := []int32{0, 1, 7, 8, 9, 1000, 1 << 20}
	for _, id := range ids {
		b.Append(id)
	}
	if b.Len() != len(ids) || b.Last() != ids[len(ids)-1] {
		t.Fatalf("Len/Last = %d/%d", b.Len(), b.Last())
	}
	if got := b.AppendTo(nil); !slices.Equal(got, ids) {
		t.Fatalf("AppendTo = %v, want %v", got, ids)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("non-ascending Append should panic")
			}
		}()
		b.Append(5)
	}()
}

// TestVarintDecode checks that AppendDecoded gives back every list a
// Builder encoded, across the varint width boundaries and up to the
// largest ID.
func TestVarintDecode(t *testing.T) {
	cases := [][]int32{
		nil,
		{0},
		{127, 255, 256, 512},              // deltas 127 and 128: one byte, then two
		{0, 16383, 32767, 32768, 1 << 21}, // deltas 16383 and 16384: two bytes, then three
		{0, math.MaxInt32},                // the widest delta
		{math.MaxInt32 - 2, math.MaxInt32 - 1, math.MaxInt32},
	}
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		cases = append(cases, randAscending(rng, rng.Intn(200), 1+rng.Intn(1<<20)))
	}
	scratch := []int32{-1, -1, -1}
	for _, ids := range cases {
		var b Builder
		for _, id := range ids {
			b.Append(id)
		}
		scratch = AppendDecoded(scratch[:0], b.Bytes(), b.Len())
		if !slices.Equal(scratch, ids) {
			t.Fatalf("AppendDecoded = %v, want %v", scratch, ids)
		}
	}
}

// TestRebaseVarint checks that splicing a second Builder's bytes onto a
// first one's, re-based on the first list's last ID, decodes to the
// concatenation of the two lists.
func TestRebaseVarint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for range 100 {
		ids := randAscending(rng, 2+rng.Intn(100), 1+rng.Intn(1<<16))
		cut := 1 + rng.Intn(len(ids)-1)
		var lo, hi Builder
		for _, id := range ids[:cut] {
			lo.Append(id)
		}
		for _, id := range ids[cut:] {
			hi.Append(id)
		}
		enc := RebaseVarint(slices.Clone(lo.Bytes()), lo.Last(), hi.Bytes())
		if got := AppendDecoded(nil, enc, len(ids)); !slices.Equal(got, ids) {
			t.Fatalf("spliced at %d: decoded %v, want %v", cut, got, ids)
		}
	}
	var b Builder
	b.Append(7)
	if got := RebaseVarint(b.Bytes(), 7, nil); !slices.Equal(got, b.Bytes()) {
		t.Fatalf("empty enc appended: %v, want %v", got, b.Bytes())
	}
}

func TestAdvance(t *testing.T) {
	xs := []int32{2, 4, 8, 16, 32, 64, 128}
	for lo := 0; lo <= len(xs); lo++ {
		for v := int32(0); v <= 130; v++ {
			got := advance(xs, lo, v)
			want := lo
			for want < len(xs) && xs[want] < v {
				want++
			}
			if got != want {
				t.Fatalf("advance(lo=%d, v=%d) = %d, want %d", lo, v, got, want)
			}
		}
	}
}

// naiveIntersect is the reference for all intersection variants.
func naiveIntersect(a, b []int32) []int32 {
	in := make(map[int32]struct{}, len(a))
	for _, v := range a {
		in[v] = struct{}{}
	}
	var out []int32
	for _, v := range b {
		if _, ok := in[v]; ok {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

func TestIntersectionsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		// Mix skewed and balanced shapes so both regimes run.
		na, nb := rng.Intn(40), rng.Intn(40)
		if trial%3 == 0 {
			nb = rng.Intn(2000) // force galloping
		}
		span := 1 + rng.Intn(3000)
		a := randAscending(rng, na, span)
		b := randAscending(rng, nb, span)
		want := naiveIntersect(a, b)

		if got := IntersectCount(a, b); got != len(want) {
			t.Fatalf("trial %d: IntersectCount = %d, want %d", trial, got, len(want))
		}
		wantFirst := int32(-1)
		if len(want) > 0 {
			wantFirst = want[0]
		}
		if got := First(a, b); got != wantFirst {
			t.Fatalf("trial %d: First = %d, want %d", trial, got, wantFirst)
		}
		var seen []int32
		ForEachCommon(a, b, func(v int32) { seen = append(seen, v) })
		if !slices.Equal(seen, want) && !(len(seen) == 0 && len(want) == 0) {
			t.Fatalf("trial %d: ForEachCommon = %v, want %v", trial, seen, want)
		}
	}
}
