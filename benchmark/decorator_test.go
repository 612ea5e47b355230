package main

import (
	"path/filepath"
	"slices"
	"testing"

	"metablocking/internal/dataio"
	"metablocking/internal/incremental"
	"metablocking/internal/shard"
)

// The coordinator discovers the disk tier by asserting these on whatever
// Config.Backends returned: the decorator has to offer them itself.
var (
	_ shard.Backend    = (*timedBackend)(nil)
	_ shard.Backend    = (*timedDiskBackend)(nil)
	_ shard.Maintainer = (*timedDiskBackend)(nil)
)

// TestDecoratorPreservesAnswers runs the same arrivals through a single
// index and through groups whose backends are timing decorators — memory
// partitions and disk partitions that seal, compact and fsync on the way
// — and requires identical IDs, candidates and weights, and spans for
// every decorated call.
func TestDecoratorPreservesAnswers(t *testing.T) {
	w := smokeWorkload(t, "serve_disk_wal")
	in, err := buildServeInputs(w, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mono, err := incremental.FromSnapshot(in.snapshot)
	if err != nil {
		t.Fatal(err)
	}

	recs := [2]*recorder{newRecorder(), newRecorder()}
	mem, err := shard.FromSnapshot(in.snapshot, shard.Config{
		Shards: w.shards,
		Backends: func(k int) (shard.Backend, error) {
			part := incremental.NewPartition(in.snapshot.Config.Scheme, w.shards, k)
			return &timedBackend{inner: part, rec: recs[0]}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	disk, err := newDiskGroup(w, in.snapshot, filepath.Join(t.TempDir(), "index"), recs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	groups := [2]*shard.Group{mem, disk}

	for _, rec := range recs {
		rec.on.Store(true)
	}
	for i, body := range in.bodies {
		p, err := dataio.ParseProfileJSON(body)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := mono.Resolve(p)
		for gi, g := range groups {
			id := recs[gi].root(spanIndex, i)
			got, err := g.Resolve(p)
			recs[gi].end(id)
			if err != nil {
				t.Fatalf("group %d arrival %d: %v", gi, i, err)
			}
			if got.ID != want.ID || !slices.Equal(got.Candidates, want.Candidates) {
				t.Fatalf("group %d arrival %d: decorated group answers %v, single index %v", gi, i, got, want)
			}
		}
		id := recs[1].root(spanIndexWAL, i)
		if err := disk.SyncWAL(); err != nil {
			t.Fatalf("SyncWAL after arrival %d: %v", i, err)
		}
		recs[1].end(id)
	}

	n := len(in.bodies)
	count := func(rec *recorder, name string) int { return len(durationsUS(rec.spans, name)) }
	if got := count(recs[0], spanGather); got != n*w.shards {
		t.Errorf("memory group recorded %d gather spans, want %d (one per shard per arrival)", got, n*w.shards)
	}
	if got := count(recs[0], spanCommit); got != n {
		t.Errorf("memory group recorded %d commit spans, want %d", got, n)
	}
	if got := count(recs[1], spanSyncWAL); got != n*w.shards {
		t.Errorf("disk group recorded %d per-shard SyncWAL spans, want %d", got, n*w.shards)
	}
	if count(recs[1], spanSeal) == 0 {
		t.Error("the smoke disk workload never sealed: the decorated Seal path was not exercised")
	}
	for _, s := range recs[1].spans {
		if (s.Name == spanGather || s.Name == spanCommit || s.Name == spanSeal) && (s.Parent < 0 || recs[1].spans[s.Parent].Name != spanIndex) {
			t.Fatalf("%s span is not a child of the resolve that caused it: %+v", s.Name, s)
		}
	}
	if mem, disk := recs[0].gathered.Load(), recs[1].gathered.Load(); mem == 0 || disk < mem {
		t.Errorf("gathered counts: memory %d, disk %d (disk returns every neighbour, memory its top K per shard)", mem, disk)
	}
	// Disk statistics reach the coordinator through the decorator.
	for _, st := range disk.Stats() {
		if st.Disk == nil || st.Disk.Seals == 0 {
			t.Fatalf("shard %d: disk stats lost behind the decorator: %+v", st.Shard, st.Disk)
		}
	}
}
