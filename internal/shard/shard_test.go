package shard

import (
	"errors"
	"reflect"
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/entity"
	"metablocking/internal/fault"
	"metablocking/internal/incremental"
)

func testProfiles(t testing.TB, n int) []entity.Profile {
	t.Helper()
	ds := datagen.D1D(0.1)
	if len(ds.Collection.Profiles) < n {
		t.Fatalf("dataset has %d profiles, need %d", len(ds.Collection.Profiles), n)
	}
	return ds.Collection.Profiles[:n]
}

// TestGroupMatchesSerial is the core sharding claim: for every scheme ×
// pruning algorithm × shard count, the group's resolved IDs, candidate
// sets AND weights are bit-identical to a single-index Resolver fed the
// same arrivals, and so are Peek answers and the canonical snapshot.
func TestGroupMatchesSerial(t *testing.T) {
	profiles := testProfiles(t, 200)
	for _, scheme := range []core.Scheme{core.ARCS, core.CBS, core.ECBS, core.JS} {
		for _, k := range []int{0, 3} {
			rcfg := incremental.Config{Scheme: scheme, K: k, MaxBlockSize: 40}
			serial, err := incremental.NewResolver(rcfg)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]incremental.BatchResult, len(profiles))
			for i, p := range profiles {
				want[i], _ = serial.Resolve(p)
			}
			wantPeek, _ := serial.Peek(profiles[13])
			wantSnap := serial.Snapshot()

			for _, shards := range []int{1, 2, 3, 4, 16} {
				g, err := New(Config{Resolver: rcfg, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range profiles {
					got, err := g.Resolve(p)
					if err != nil {
						t.Fatalf("scheme %v k=%d shards=%d: resolve %d: %v", scheme, k, shards, i, err)
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("scheme %v k=%d shards=%d: arrival %d diverged:\n got %+v\nwant %+v",
							scheme, k, shards, i, got, want[i])
					}
				}
				if gotPeek, err := g.Peek(profiles[13]); err != nil || !reflect.DeepEqual(gotPeek, wantPeek) {
					t.Fatalf("scheme %v k=%d shards=%d: Peek diverged (err %v)", scheme, k, shards, err)
				}
				if g.Size() != serial.Size() {
					t.Fatalf("scheme %v k=%d shards=%d: size %d, want %d", scheme, k, shards, g.Size(), serial.Size())
				}
				if gotSnap := g.Snapshot(); !reflect.DeepEqual(gotSnap, wantSnap) {
					t.Fatalf("scheme %v k=%d shards=%d: canonical snapshot diverged", scheme, k, shards)
				}
				if err := g.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestMergerTieBreak pins the deterministic tie-break of the cross-shard
// top-K merge: equal weights rank by ascending entity ID regardless of
// which shard reported them or in what order the lists arrive.
func TestMergerTieBreak(t *testing.T) {
	sc := func(id int, w float64) incremental.ShardCand {
		return incremental.ShardCand{Candidate: incremental.Candidate{ID: entity.ID(id), Weight: w}}
	}
	listsA := [][]incremental.ShardCand{
		{sc(7, 2.0), sc(3, 1.0)},
		{sc(2, 2.0), sc(5, 2.0)},
	}
	listsB := [][]incremental.ShardCand{ // same candidates, shards swapped
		{sc(5, 2.0), sc(2, 2.0)},
		{sc(3, 1.0), sc(7, 2.0)},
	}
	want := []incremental.Candidate{{ID: 2, Weight: 2.0}, {ID: 5, Weight: 2.0}}
	var merger incremental.Merger
	gotA := merger.TopK(2, listsA)
	gotB := merger.TopK(2, listsB)
	if !reflect.DeepEqual(gotA, want) || !reflect.DeepEqual(gotB, want) {
		t.Fatalf("tie-break not deterministic:\n A=%v\n B=%v\n want %v", gotA, gotB, want)
	}
	// Mean pruning: discovery order reconstructed from (FirstKey, ID)
	// must be input-order independent too.
	fk := func(id int, w float64, key int32) incremental.ShardCand {
		c := sc(id, w)
		c.FirstKey = key
		return c
	}
	meanA := [][]incremental.ShardCand{{fk(4, 3.0, 1), fk(0, 1.0, 0)}, {fk(1, 2.0, 0)}}
	meanB := [][]incremental.ShardCand{{fk(1, 2.0, 0)}, {fk(0, 1.0, 0), fk(4, 3.0, 1)}}
	wantMean := []incremental.Candidate{{ID: 4, Weight: 3.0}, {ID: 1, Weight: 2.0}}
	if got := merger.AboveMean(meanA); !reflect.DeepEqual(got, wantMean) {
		t.Fatalf("AboveMean A = %v, want %v", got, wantMean)
	}
	if got := merger.AboveMean(meanB); !reflect.DeepEqual(got, wantMean) {
		t.Fatalf("AboveMean B = %v, want %v", got, wantMean)
	}
}

// TestTokenBackpressure exhausts a shard's admission tokens and expects
// ErrShardBusy — without consuming an ID or mutating any shard.
func TestTokenBackpressure(t *testing.T) {
	profiles := testProfiles(t, 4)
	g, err := New(Config{Resolver: incremental.Config{Scheme: core.CBS}, Shards: 2, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Resolve(profiles[0]); err != nil {
		t.Fatal(err)
	}
	// Steal shard 1's only token: the next resolve cannot scatter to it.
	g.actors[1].tokens <- struct{}{}
	if _, err := g.Resolve(profiles[1]); !errors.Is(err, ErrShardBusy) {
		t.Fatalf("resolve with exhausted tokens: err = %v, want ErrShardBusy", err)
	}
	if g.Size() != 1 {
		t.Fatalf("failed resolve consumed an ID: size %d", g.Size())
	}
	<-g.actors[1].tokens
	if _, err := g.Resolve(profiles[1]); err != nil {
		t.Fatalf("resolve after releasing token: %v", err)
	}
}

// TestShardDownAndPartial drives one shard into down state via injected
// gather faults, then verifies degraded behavior: gathers skip the down
// shard, commits homed on it are refused with ErrShardDown, IDs never
// skip, and the other shard keeps serving.
func TestShardDownAndPartial(t *testing.T) {
	profiles := testProfiles(t, 10)
	inj := fault.New(1)
	g, err := New(Config{
		Resolver: incremental.Config{Scheme: core.CBS},
		Shards:   2, DownAfter: 3, Fault: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := 0; i < 2; i++ {
		if _, err := g.Resolve(profiles[i]); err != nil {
			t.Fatal(err)
		}
	}
	inj.Arm(GatherSite(1), fault.Spec{Times: 3})
	for i := 0; i < 3; i++ {
		if _, err := g.Resolve(profiles[2]); err == nil {
			t.Fatalf("resolve %d with armed fault: no error", i)
		}
		if g.Size() != 2 {
			t.Fatalf("failed resolve consumed an ID: size %d", g.Size())
		}
	}
	if st := g.Stats(); !st[1].Down || st[0].Down {
		t.Fatalf("down after 3 consecutive failures = %v, %v, want shard 1 only", st[0].Down, st[1].Down)
	}
	// id 2 homes on shard 0: partial gather, successful commit.
	res, err := g.Resolve(profiles[2])
	if err != nil {
		t.Fatalf("partial resolve: %v", err)
	}
	if res.ID != 2 {
		t.Fatalf("partial resolve ID = %d, want 2", res.ID)
	}
	if got := g.metrics.Counter(CtrPartialGathers).Value(); got == 0 {
		t.Fatal("partial gather not counted")
	}
	// id 3 homes on the down shard 1: refused, no ID consumed.
	if _, err := g.Resolve(profiles[3]); !errors.Is(err, ErrShardDown) {
		t.Fatalf("resolve homed on down shard: err = %v, want ErrShardDown", err)
	}
	if g.Size() != 3 {
		t.Fatalf("size after refused resolve = %d, want 3", g.Size())
	}
	// Peek still answers, degraded.
	if _, err := g.Peek(profiles[4]); err != nil {
		t.Fatalf("degraded peek: %v", err)
	}
	stats := g.Stats()
	if !stats[1].Down || stats[0].Down {
		t.Fatalf("stats down flags = %+v", stats)
	}
}

// TestFailingCommitsMarkTheHomeShardDown: on actor shards, DownAfter
// consecutive failing commits mark the home shard down, although every
// gather before them succeeds on it; the other shards stay up.
func TestFailingCommitsMarkTheHomeShardDown(t *testing.T) {
	profiles := testProfiles(t, 2)
	inj := fault.New(1)
	g, err := New(Config{Resolver: incremental.Config{Scheme: core.JS, K: 3}, Shards: 4, DownAfter: 3, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Resolve(profiles[0]); err != nil {
		t.Fatal(err)
	}
	// id 1 homes on shard 1.
	inj.Arm(CommitSite(1), fault.Spec{Times: 3})
	for i := 0; i < 3; i++ {
		if _, err := g.Resolve(profiles[1]); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("commit fault %d: err = %v, want ErrInjected", i, err)
		}
	}
	for i, st := range g.Stats() {
		if want := i == 1; st.Down != want || (st.ConsecutiveFailures == 3) != want {
			t.Fatalf("shard %d after 3 failing commits on shard 1: %+v", i, st)
		}
	}
	if _, err := g.Resolve(profiles[1]); !errors.Is(err, ErrShardDown) {
		t.Fatalf("resolve on the down shard: err = %v, want ErrShardDown", err)
	}
	if g.Size() != 1 {
		t.Fatalf("size %d, want 1", g.Size())
	}
}

// TestPanicIsolation injects a panic inside one actor's commit: the
// resolve fails with a typed error, the actor survives, and the very
// next resolve succeeds with the same ID.
func TestPanicIsolation(t *testing.T) {
	profiles := testProfiles(t, 4)
	inj := fault.New(1)
	g, err := New(Config{Resolver: incremental.Config{Scheme: core.JS}, Shards: 2, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	inj.Arm(CommitSite(0), fault.Spec{Panic: true, Times: 1})
	if _, err := g.Resolve(profiles[0]); err == nil {
		t.Fatal("resolve with armed panic: no error")
	}
	res, err := g.Resolve(profiles[0])
	if err != nil {
		t.Fatalf("resolve after recovered panic: %v", err)
	}
	if res.ID != 0 {
		t.Fatalf("ID after recovered panic = %d, want 0 (no ID consumed by the failure)", res.ID)
	}
}

// TestFromSnapshotRoundTrip proves the canonical snapshot is
// shard-count-neutral in both directions: group → snapshot → group at a
// different shard count → identical future resolutions and snapshot.
func TestFromSnapshotRoundTrip(t *testing.T) {
	profiles := testProfiles(t, 60)
	rcfg := incremental.Config{Scheme: core.ECBS, K: 2}
	g4, err := New(Config{Resolver: rcfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer g4.Close()
	for _, p := range profiles[:40] {
		if _, err := g4.Resolve(p); err != nil {
			t.Fatal(err)
		}
	}
	snap := g4.Snapshot()

	serial, err := incremental.FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	g3, err := FromSnapshot(snap, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer g3.Close()
	if g3.Size() != 40 {
		t.Fatalf("restored size = %d, want 40", g3.Size())
	}
	for i, p := range profiles[40:] {
		want, _ := serial.Resolve(p)
		got, err := g3.Resolve(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("post-restore arrival %d diverged", i)
		}
	}
	if !reflect.DeepEqual(g3.Snapshot(), serial.Snapshot()) {
		t.Fatal("post-restore snapshots diverged")
	}

	// A second hop: the restored group's snapshot rebuilds a group at
	// yet another count with the same contents.
	g5, err := FromSnapshot(g3.Snapshot(), Config{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer g5.Close()
	if !reflect.DeepEqual(g5.Snapshot(), g3.Snapshot()) {
		t.Fatal("second round trip diverged")
	}

	// A Blocks that is exactly the key lists' inverse is accepted...
	bad := g3.Snapshot()
	bad.Blocks = make(map[string][]entity.ID)
	for i, keys := range bad.BlocksOf {
		for _, k := range keys {
			bad.Blocks[k] = append(bad.Blocks[k], entity.ID(i))
		}
	}
	exact, err := FromSnapshot(bad, Config{Shards: 2})
	if err != nil {
		t.Fatalf("exact inverse refused: %v", err)
	}
	exact.Close()
	// ...and one missing a member refused.
	for k, ms := range bad.Blocks {
		if len(ms) > 1 {
			bad.Blocks[k] = ms[:len(ms)-1]
			break
		}
	}
	if _, err := FromSnapshot(bad, Config{Shards: 2}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestCloseIdempotent: Close twice is fine, Resolve/Peek after Close are
// refused, Snapshot after Close still works (for final persistence).
func TestCloseIdempotent(t *testing.T) {
	profiles := testProfiles(t, 2)
	g, err := New(Config{Resolver: incremental.Config{Scheme: core.ARCS}, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Resolve(profiles[0]); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Resolve(profiles[1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("resolve after close: err = %v, want ErrClosed", err)
	}
	if _, err := g.Peek(profiles[1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("peek after close: err = %v, want ErrClosed", err)
	}
	if snap := g.Snapshot(); len(snap.Profiles) != 1 {
		t.Fatalf("snapshot after close has %d profiles, want 1", len(snap.Profiles))
	}
}

// TestEJSRefused: the unsupported scheme is refused up front, matching
// incremental.NewResolver.
func TestEJSRefused(t *testing.T) {
	if _, err := New(Config{Resolver: incremental.Config{Scheme: core.EJS}}); !errors.Is(err, incremental.ErrUnsupportedScheme) {
		t.Fatalf("EJS: err = %v, want ErrUnsupportedScheme", err)
	}
}
