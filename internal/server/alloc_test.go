package server

import (
	"context"
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/incremental"
)

// TestResolveBatchPassAllocBudget pins the steady-state allocation budget
// of one admitted request through the whole batch pass: pooled reply
// channel, reused batch/outcome buffers, the resolver's reused token and
// ScanCount scratch, and the compressed posting-list appends. What remains
// is the per-request output (the candidate slice and the retained keys
// and profile bookkeeping) plus amortized index growth.
func TestResolveBatchPassAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under the race detector")
	}
	avg := loneCallerAllocs(t, 1) // one-job batches: the pass itself is what's measured
	// The pre-pooling baseline sat around 26 allocs per request; the
	// budget leaves headroom for output-size variance while catching any
	// reintroduced per-request channel, batch-buffer or scratch churn.
	const budget = 20
	if avg > budget {
		t.Errorf("resolve batch pass allocated %.1f times per request, budget %d", avg, budget)
	}
}

// TestLoneCallerAllocatesNoTimer pins the idle flush's cost side: a
// caller with nobody else in flight is flushed without arming the batch
// window's timer, so at the default MaxBatch it allocates exactly what a
// MaxBatch of 1 — which never batches — does.
func TestLoneCallerAllocatesNoTimer(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under the race detector")
	}
	direct := loneCallerAllocs(t, 1)
	batched := loneCallerAllocs(t, 0) // default MaxBatch
	if batched != direct {
		t.Errorf("lone caller allocates %.1f times per request at the default MaxBatch, %.1f at MaxBatch 1", batched, direct)
	}
}

// loneCallerAllocs warms a fresh server with 500 sequential resolves —
// every pool and scratch buffer — and returns the mean allocations of
// the next 80, each the only request in flight.
func loneCallerAllocs(t *testing.T, maxBatch int) float64 {
	t.Helper()
	profiles := testProfiles(t, 600)
	s := newTestServer(t, Config{
		Resolver: incremental.Config{Scheme: core.JS, K: 10},
		MaxBatch: maxBatch,
	})
	ctx := context.Background()
	for _, p := range profiles[:500] {
		if _, err := s.Resolve(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	i := 500
	return testing.AllocsPerRun(80, func() {
		if _, err := s.Resolve(ctx, profiles[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
}
