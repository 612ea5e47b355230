package server

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"metablocking/internal/budget"
	"metablocking/internal/core"
	"metablocking/internal/incremental"
)

// TestCheckpointRefusedInMemory: an in-memory server has nothing to seal,
// so Checkpoint fails at every shard count — without counting a snapshot
// or advancing the generation that resume cursors are bound to.
func TestCheckpointRefusedInMemory(t *testing.T) {
	profiles := testProfiles(t, 10)
	for _, shards := range []int{1, 4} {
		s := newTestServer(t, Config{Resolver: incremental.Config{Scheme: core.JS, K: 5}, Shards: shards})
		for _, p := range profiles {
			if _, err := s.Resolve(context.Background(), p); err != nil {
				t.Fatal(err)
			}
		}
		gen := s.Generation()
		if _, err := s.Checkpoint(); err == nil {
			t.Fatalf("shards=%d: in-memory checkpoint succeeded", shards)
		}
		if s.Generation() != gen {
			t.Fatalf("shards=%d: generation %d → %d on a refused checkpoint", shards, gen, s.Generation())
		}
		if n := s.Metrics().Counter(CtrSnapshots).Value(); n != 0 {
			t.Fatalf("shards=%d: %d snapshots counted", shards, n)
		}
	}
}

// TestStatusReportsTheInlineShard: the default one-shard server reports
// its one shard, and the inline shard — which never queues — does not
// read as a full queue.
func TestStatusReportsTheInlineShard(t *testing.T) {
	s := newTestServer(t, Config{Resolver: incremental.Config{Scheme: core.JS, K: 5}})
	for _, p := range testProfiles(t, 3) {
		if _, err := s.Resolve(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/admin/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Config.Shards != 1 || len(st.Shards) != 1 {
		t.Fatalf("status: %d configured shards, %d reported, want 1 and 1", st.Config.Shards, len(st.Shards))
	}
	sh := st.Shards[0]
	if sh.Profiles != 3 || sh.Down || sh.QueueFree <= 0 || sh.QueueFree != st.Config.ShardQueueDepth {
		t.Fatalf("inline shard status %+v, queue depth %d", sh, st.Config.ShardQueueDepth)
	}
}

// TestGatheredCountsWeighedNeighbors: budget.gathered sums the neighbors
// each resolve weighed — what the serial Resolver reports as LastWeighed —
// at every shard count, not the partitions' local top-K.
func TestGatheredCountsWeighedNeighbors(t *testing.T) {
	profiles := testProfiles(t, 120)
	for _, shards := range []int{1, 4} {
		rcfg := incremental.Config{Scheme: core.JS, K: 5}
		s := newTestServer(t, Config{Resolver: rcfg, Shards: shards})
		serial, err := incremental.NewResolver(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		for _, p := range profiles {
			if _, err := s.Resolve(context.Background(), p); err != nil {
				t.Fatal(err)
			}
			serial.Add(p)
			want += int64(serial.LastWeighed())
		}
		if got := s.Metrics().Counter(budget.CtrGathered).Value(); got != want || want == 0 {
			t.Fatalf("shards=%d: budget.gathered %d, serial weighed %d", shards, got, want)
		}
	}
}
