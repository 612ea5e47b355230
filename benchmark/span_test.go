package main

import (
	"testing"
)

func TestSelfTimesNested(t *testing.T) {
	// root [0,100] ⊃ a [10,60] ⊃ b [20,30]
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 60, Parent: 0},
		{Name: "b", Start: 20, End: 30, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{50, 40, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimesOverlappingSiblings(t *testing.T) {
	// Four shard gathers run at once under one resolve: the interval they
	// cover together is subtracted once, not four times.
	spans := []span{
		{Name: "resolve", Start: 0, End: 100, Parent: -1},
		{Name: "gather", Start: 10, End: 40, Parent: 0},
		{Name: "gather", Start: 12, End: 50, Parent: 0},
		{Name: "gather", Start: 15, End: 30, Parent: 0}, // inside the others
		{Name: "gather", Start: 11, End: 45, Parent: 0},
		{Name: "commit", Start: 60, End: 70, Parent: 0}, // disjoint
	}
	if got := selfTimes(spans)[0]; got != 100-40-10 {
		t.Errorf("resolve self = %d, want 50 (union [10,50] and [60,70])", got)
	}
}

func TestSelfTimesClipsToParent(t *testing.T) {
	// A child recorded out of order and outliving its parent.
	spans := []span{
		{Name: "late", Start: 80, End: 130, Parent: 1},
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "early", Start: -10, End: 5, Parent: 1},
	}
	if got := selfTimes(spans)[1]; got != 100-20-5 {
		t.Errorf("root self = %d, want 75", got)
	}
}

func TestPerOpSumsAcrossNames(t *testing.T) {
	// One stream: a resolve and two resumes; one plain resolve.
	l1 := []span{
		{Name: spanResolve, Start: 0, End: 300_000, Op: 0},
		{Name: spanResume, Start: 400_000, End: 600_000, Op: 0},
		{Name: spanResume, Start: 700_000, End: 800_000, Op: 0},
		{Name: spanResolve, Start: 0, End: 100_000, Op: 1},
		{Name: "other", Start: 0, End: 999_000, Op: 1},
	}
	got := perOpUS(l1, spanResolve, spanResume)
	if len(got) != 2 {
		t.Fatalf("perOpUS returned %d operations, want 2", len(got))
	}
	if m := median(got); m != (600+100)/2 {
		t.Errorf("median per-operation time = %v µs, want 350", m)
	}

	// Cross-pass self time: the median of the outer pass minus the median
	// of the inner one, both per operation.
	l2 := []span{
		{Name: spanIndex, Start: 0, End: 50_000, Op: 0},
		{Name: spanIndexRes, Start: 0, End: 40_000, Op: 0},
		{Name: spanIndexRes, Start: 0, End: 30_000, Op: 0},
		{Name: spanIndex, Start: 0, End: 40_000, Op: 1},
	}
	wait := median(perOpUS(l1, spanResolve, spanResume)) - median(perOpUS(l2, spanIndex, spanIndexWAL, spanIndexRes))
	if wait != 350-(120+40)/2 {
		t.Errorf("batch wait = %v µs, want 270", wait)
	}
}

func TestGatherShapeAndStall(t *testing.T) {
	spans := []span{
		{Name: spanIndex, Start: 0, End: 100_000, Parent: -1, Op: 0},
		{Name: spanGather, Start: 0, End: 10_000, Parent: 0},
		{Name: spanGather, Start: 0, End: 30_000, Parent: 0},
		{Name: spanIndex, Start: 200_000, End: 9_200_000, Parent: -1, Op: 1}, // 9 ms, overlaps the compaction
		{Name: spanGather, Start: 200_000, End: 220_000, Parent: 3},
		{Name: spanGather, Start: 200_000, End: 220_000, Parent: 3},
		{Name: spanCompact, Start: 150_000, End: 9_000_000, Parent: -1, Op: -1},
	}
	gmax, gsum, skew := gatherShape(spans)
	if gmax != 25 || gsum != 40 {
		t.Errorf("gather max/sum = %v/%v µs, want 25/40 (medians over two resolves)", gmax, gsum)
	}
	if skew != 1.25 { // (30/20 + 20/20) / 2
		t.Errorf("gather skew = %v, want 1.25", skew)
	}
	if got := stallMaxMS(spans); got != 9 {
		t.Errorf("stall = %v ms, want 9", got)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	rec := newRecorder()
	id := rec.root("x", 1)
	rec.end(id)
	if id != -1 || len(rec.spans) != 0 {
		t.Fatalf("recorder recorded while off: id=%d spans=%d", id, len(rec.spans))
	}
	rec.on.Store(true)
	root := rec.root("root", 7)
	kid := rec.child("kid")
	rec.end(kid)
	rec.end(root)
	if len(rec.spans) != 2 || rec.spans[1].Parent != root || rec.spans[1].Op != 7 {
		t.Fatalf("child not filed under the current root: %+v", rec.spans)
	}
	if rec.spans[0].End < rec.spans[1].End || rec.spans[1].Start < rec.spans[0].Start {
		t.Errorf("child interval %+v not inside root %+v", rec.spans[1], rec.spans[0])
	}
}
