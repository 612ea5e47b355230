package incremental

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/entity"
)

// scanFixture is shard 1 of a 2-way layout: IDs 1, 3, 5, 7 at slots
// 0..3. Entity 3 repeats across three keys, "c" is fed as two member
// lists the way a disk partition feeds sealed segment + memtable, and
// "d" is always ruled out by the coordinator.
var scanFixture = struct {
	shards    int
	keyCounts []int // |B_j| per slot
	keys      []string
	lists     map[string][][]entity.ID
}{
	shards:    2,
	keyCounts: []int{2, 3, 1, 4},
	keys:      []string{"a", "b", "c", "d"},
	lists: map[string][][]entity.ID{
		"a": {{1, 3}},
		"b": {{3, 5}},
		"c": {{1, 3}, {7}},
		"d": {{5, 7}},
	},
}

// feed drives one gather the way every back end does: live keys in key
// order, each member list in turn.
func feed(s *ScanCount, keys []string, incs []float64) {
	s.Begin()
	for ki, k := range keys {
		if incs[ki] == SkipKey {
			continue
		}
		for _, members := range scanFixture.lists[k] {
			s.Scan(ki, incs[ki], members)
		}
	}
}

// naiveGather is the obviously-correct reference: a map of running sums
// and the paper's weight formulas written out per scheme.
func naiveGather(scheme core.Scheme, keys []string, incs []float64, bi int, nb float64) []ShardCand {
	common := map[entity.ID]float64{}
	first := map[entity.ID]int32{}
	var order []entity.ID
	for ki, k := range keys {
		if incs[ki] == SkipKey {
			continue
		}
		for _, members := range scanFixture.lists[k] {
			for _, j := range members {
				if _, seen := common[j]; !seen {
					first[j] = int32(ki)
					order = append(order, j)
				}
				common[j] += incs[ki]
			}
		}
	}
	var out []ShardCand
	for _, j := range order {
		bj := float64(scanFixture.keyCounts[int(j)/scanFixture.shards])
		w := common[j]
		switch scheme {
		case core.ECBS:
			w = w * math.Log(nb/float64(bi)) * math.Log(nb/bj)
		case core.JS:
			w = w / (float64(bi) + bj - w)
		}
		out = append(out, ShardCand{Candidate: Candidate{ID: j, Weight: w}, FirstKey: first[j]})
	}
	return out
}

// ranked strips FirstKey (meaningless after pruning) and sorts by the
// candidate ranking, truncating to k when positive.
func ranked(cs []ShardCand, k int) []Candidate {
	out := make([]Candidate, len(cs))
	for i, c := range cs {
		out[i] = c.Candidate
	}
	sortCandidates(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func TestScanCountKernel(t *testing.T) {
	fx := scanFixture
	const bi, nb = 4, 9.0
	unit := []float64{1, 1, 1, SkipKey}
	// ARCS increments are 1/‖b‖, fractional and different per key.
	arcs := []float64{1.0 / 3, 1.0 / 6, 1.0 / 10, SkipKey}
	cases := []struct {
		scheme core.Scheme
		incs   []float64
	}{
		{core.ARCS, arcs},
		{core.CBS, unit},
		{core.ECBS, unit},
		{core.JS, unit},
	}
	for _, tc := range cases {
		s := NewScanCount(tc.scheme, fx.shards)
		for _, n := range fx.keyCounts {
			s.AddSlot(n)
		}
		want := naiveGather(tc.scheme, fx.keys, tc.incs, bi, nb)
		if len(want) != 4 || want[1].ID != 3 || want[3].ID != 7 || want[3].FirstKey != 2 {
			t.Fatalf("%v: fixture drifted: %+v", tc.scheme, want)
		}
		var dst []ShardCand

		// Unpruned: discovery order, weights and FirstKey exact. Entity 7
		// is reachable only through the second list of "c" — "d" is
		// skipped — so it is discovered last, at key 2.
		feed(s, fx.keys, tc.incs)
		dst = s.Weigh(bi, nb, 0, dst)
		if !reflect.DeepEqual(dst, want) {
			t.Errorf("%v unpruned:\n got %+v\nwant %+v", tc.scheme, dst, want)
		}

		// The same kernel, next epoch, fewer keys: nothing leaks from the
		// previous gather's cells, and the first-key index restarts.
		sub, subIncs := []string{"d", "b"}, []float64{SkipKey, tc.incs[1]}
		feed(s, sub, subIncs)
		dst = s.Weigh(1, nb, 0, dst)
		if wantSub := naiveGather(tc.scheme, sub, subIncs, 1, nb); !reflect.DeepEqual(dst, wantSub) {
			t.Errorf("%v second epoch:\n got %+v\nwant %+v", tc.scheme, dst, wantSub)
		}

		// Pruned to K, and to more than the neighborhood holds.
		for _, k := range []int{2, 10} {
			feed(s, fx.keys, tc.incs)
			dst = s.Weigh(bi, nb, k, dst)
			if got := ranked(dst, 0); !slices.Equal(got, ranked(want, k)) {
				t.Errorf("%v top-%d:\n got %+v\nwant %+v", tc.scheme, k, got, ranked(want, k))
			}
		}

		// Every key skipped: no neighbors, and dst is reused, not nil'd.
		feed(s, fx.keys, []float64{SkipKey, SkipKey, SkipKey, SkipKey})
		if dst = s.Weigh(bi, nb, 0, dst); len(dst) != 0 {
			t.Errorf("%v all skipped: got %+v", tc.scheme, dst)
		}
	}
}

// TestScanCountSlotIsExact pins the multiply-shift slot arithmetic to
// id/shards for every shard count's boundary IDs, up to the largest ID.
func TestScanCountSlotIsExact(t *testing.T) {
	ids := []entity.ID{math.MaxInt32 - 1, math.MaxInt32}
	for id := entity.ID(0); id < 1<<16; id++ {
		ids = append(ids, id)
	}
	for _, shards := range []int{1, 2, 3, 4, 7, 16, 17, 1000, 65537} {
		s := NewScanCount(core.JS, shards)
		for _, id := range ids {
			if got, want := uint64(id)*s.mul>>s.shift, uint64(id)/uint64(shards); got != want {
				t.Fatalf("shards %d: slot of %d = %d, want %d", shards, id, got, want)
			}
		}
	}
}
