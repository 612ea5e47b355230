package incremental

import (
	"errors"
	"slices"
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/entity"
)

// TestSentinelWrapsPublic: the incremental sentinel must wrap the shared
// core sentinel (which the public metablocking package aliases), so
// errors.Is matches across layers.
func TestSentinelWrapsPublic(t *testing.T) {
	if !errors.Is(ErrUnsupportedScheme, core.ErrUnsupportedScheme) {
		t.Fatal("incremental.ErrUnsupportedScheme does not wrap core.ErrUnsupportedScheme")
	}
	_, err := NewResolver(Config{Scheme: core.EJS})
	if !errors.Is(err, core.ErrUnsupportedScheme) {
		t.Fatalf("NewResolver(EJS) error %v does not match the shared sentinel", err)
	}
	if !errors.Is(err, ErrUnsupportedScheme) {
		t.Fatalf("NewResolver(EJS) error %v does not match the package sentinel", err)
	}
}

func candidatesEqual(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Weight != b[i].Weight {
			return false
		}
	}
	return true
}

// TestAddBatchMatchesSequential: one AddBatch call must be
// indistinguishable from the same profiles added one at a time.
func TestAddBatchMatchesSequential(t *testing.T) {
	ds := datagen.D1D(0.05)
	profiles := ds.Collection.Profiles
	for _, cfg := range []Config{
		{Scheme: core.JS, K: 10},
		{Scheme: core.ARCS},
		{Scheme: core.ECBS, K: 3, MaxBlockSize: 50},
	} {
		batched := mustResolver(t, cfg)
		serial := mustResolver(t, cfg)
		// Mixed batch sizes, including empty and single.
		for lo := 0; lo < len(profiles); {
			hi := lo + (lo % 7) + 1
			if hi > len(profiles) {
				hi = len(profiles)
			}
			results := batched.AddBatch(profiles[lo:hi])
			if len(results) != hi-lo {
				t.Fatalf("AddBatch returned %d results for %d profiles", len(results), hi-lo)
			}
			for i, r := range results {
				wantID, wantCands := serial.Add(profiles[lo+i])
				if r.ID != wantID {
					t.Fatalf("cfg %+v: batch ID %d, serial %d", cfg, r.ID, wantID)
				}
				if !candidatesEqual(r.Candidates, wantCands) {
					t.Fatalf("cfg %+v arrival %d: batch candidates %v, serial %v",
						cfg, r.ID, r.Candidates, wantCands)
				}
			}
			lo = hi
		}
		if batched.AddBatch(nil) != nil {
			t.Fatal("empty batch returned results")
		}
	}
}

// TestSnapshotRoundTrip: restoring a snapshot yields a resolver whose
// future answers are identical to the original's.
func TestSnapshotRoundTrip(t *testing.T) {
	ds := datagen.D1D(0.05)
	profiles := ds.Collection.Profiles
	half := len(profiles) / 2

	orig := mustResolver(t, Config{Scheme: core.JS, K: 10})
	orig.AddBatch(profiles[:half])
	snap := orig.Snapshot()

	restored, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Size() != half {
		t.Fatalf("restored size = %d, want %d", restored.Size(), half)
	}
	for i := half; i < len(profiles); i++ {
		idA, candsA := orig.Add(profiles[i])
		idB, candsB := restored.Add(profiles[i])
		if idA != idB || !candidatesEqual(candsA, candsB) {
			t.Fatalf("arrival %d diverged after restore: (%d %v) vs (%d %v)",
				i, idA, candsA, idB, candsB)
		}
	}
}

// TestSnapshotIsDeepCopy: mutating the original after Snapshot must not
// leak into the copy.
func TestSnapshotIsDeepCopy(t *testing.T) {
	r := mustResolver(t, Config{Scheme: core.CBS})
	var p entity.Profile
	p.Add("v", "alpha beta")
	r.Add(p)
	snap := r.Snapshot()
	members := func() int { // the "alpha" block's size, counted through BlocksOf
		n := 0
		for _, keys := range snap.BlocksOf {
			if slices.Contains(keys, "alpha") {
				n++
			}
		}
		return n
	}
	before := members()
	r.Add(p) // grows the live block
	if got := members(); got != before || len(snap.Profiles) != 1 {
		t.Fatalf("snapshot block grew from %d to %d after a live Add", before, got)
	}
}

// TestFromSnapshotValidates covers the rejection paths: the shape checks
// and the shared Validate that an optional Blocks must pass — exactly the
// inverse of BlocksOf.
func TestFromSnapshotValidates(t *testing.T) {
	if _, err := FromSnapshot(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := FromSnapshot(&Snapshot{Config: Config{Scheme: core.EJS}}); !errors.Is(err, ErrUnsupportedScheme) {
		t.Fatal("EJS snapshot accepted")
	}
	if _, err := FromSnapshot(&Snapshot{
		Profiles: make([]entity.Profile, 2),
		BlocksOf: make([][]string, 1),
	}); err == nil {
		t.Fatal("mismatched BlocksOf length accepted")
	}
	if _, err := FromSnapshot(&Snapshot{
		Profiles: make([]entity.Profile, 1),
		BlocksOf: [][]string{{"tok", "tok"}},
		Blocks:   map[string][]entity.ID{"tok": {0}},
	}); err == nil {
		t.Fatal("key listed twice for one profile accepted")
	}
	keyLists := [][]string{{"a", "b"}, {"b"}, {"a", "b"}}
	for _, tc := range []struct {
		name   string
		blocks map[string][]entity.ID
		ok     bool
	}{
		{"exact inverse", map[string][]entity.ID{"a": {0, 2}, "b": {0, 1, 2}}, true},
		{"missing key", map[string][]entity.ID{"a": {0, 2}}, false},
		{"extra member", map[string][]entity.ID{"a": {0, 1, 2}, "b": {0, 1, 2}}, false},
		{"wrong count", map[string][]entity.ID{"a": {0, 2}, "b": {0, 2}}, false},
		{"extra key", map[string][]entity.ID{"a": {0, 2}, "b": {0, 1, 2}, "c": {1}}, false},
		{"out of range", map[string][]entity.ID{"a": {0, 2}, "b": {0, 1, 5}}, false},
		{"out of order", map[string][]entity.ID{"a": {2, 0}, "b": {0, 1, 2}}, false},
		{"empty map", map[string][]entity.ID{}, false},
	} {
		s := &Snapshot{Profiles: make([]entity.Profile, 3), BlocksOf: keyLists, Blocks: tc.blocks}
		_, err := FromSnapshot(s)
		if (err == nil) != tc.ok {
			t.Errorf("%s: FromSnapshot err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if (s.Validate() == nil) != tc.ok {
			t.Errorf("%s: Validate disagrees with FromSnapshot", tc.name)
		}
	}
}
