package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/entity"
	"metablocking/internal/fault"
	"metablocking/internal/incremental"
)

// shardedFixture builds per-shard segments (plus the canonical snapshot)
// from a real resolver run, so round trips exercise genuine index shapes.
func shardedFixture(t *testing.T, shards int) (incremental.Config, []*incremental.PartitionSnapshot, *incremental.Snapshot) {
	t.Helper()
	cfg := incremental.Config{Scheme: core.ECBS, K: 3}
	r, err := incremental.NewResolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := datagen.D1D(0.05)
	r.AddBatch(ds.Collection.Profiles[:80])
	snap := r.Snapshot()
	parts, err := partitionSnapshotsOf(snap, shards)
	if err != nil {
		t.Fatal(err)
	}
	return snap.Config, parts, snap
}

// partitionSnapshotsOf splits a canonical snapshot into per-shard
// segments, the inverse of incremental.MergeSnapshots. The segments share
// the snapshot's profile and member slices; treat both as immutable.
func partitionSnapshotsOf(s *incremental.Snapshot, shards int) ([]*incremental.PartitionSnapshot, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("incremental: %d shards", shards)
	}
	if len(s.BlocksOf) != len(s.Profiles) {
		return nil, fmt.Errorf("incremental: snapshot has %d profiles but %d block-key lists",
			len(s.Profiles), len(s.BlocksOf))
	}
	segs := make([]*incremental.PartitionSnapshot, shards)
	for i := range segs {
		segs[i] = &incremental.PartitionSnapshot{
			Shard:    i,
			Shards:   shards,
			BlocksOf: make([][]string, 0),
		}
	}
	for id, p := range s.Profiles {
		seg := segs[incremental.ShardOf(entity.ID(id), shards)]
		seg.Profiles = append(seg.Profiles, p)
		seg.BlocksOf = append(seg.BlocksOf, s.BlocksOf[id])
	}
	return segs, nil
}

// TestShardedRoundTrip: save segments+manifest, load them back, and
// check both the per-segment contents and the canonical merge.
func TestShardedRoundTrip(t *testing.T) {
	cfg, segs, snap := shardedFixture(t, 4)
	path := filepath.Join(t.TempDir(), "resolver.snap")
	if err := SaveShardedResolverFile(path, cfg, segs); err != nil {
		t.Fatal(err)
	}
	gotCfg, gotSegs, err := LoadShardedResolverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotCfg != cfg {
		t.Fatalf("config round trip: got %+v, want %+v", gotCfg, cfg)
	}
	if !reflect.DeepEqual(gotSegs, segs) {
		t.Fatal("segments diverged after round trip")
	}
	// LoadAny on a sharded artifact returns the canonical snapshot.
	gotSnap, err := LoadAnyResolverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSnap, snap) {
		t.Fatal("canonical snapshot diverged after sharded round trip")
	}
	// LoadAny on a plain artifact still works.
	plain := filepath.Join(t.TempDir(), "plain.snap")
	if err := SaveResolverFile(plain, snap); err != nil {
		t.Fatal(err)
	}
	gotSnap, err = LoadAnyResolverFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSnap, snap) {
		t.Fatal("canonical snapshot diverged after plain round trip")
	}
}

// TestShardedGenerations: a second save bumps the generation, loads see
// the new data, and the old generation's segments are swept.
func TestShardedGenerations(t *testing.T) {
	cfg, segs, _ := shardedFixture(t, 2)
	path := filepath.Join(t.TempDir(), "resolver.snap")
	if err := SaveShardedResolverFile(path, cfg, segs); err != nil {
		t.Fatal(err)
	}
	if err := SaveShardedResolverFile(path, cfg, segs); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(path + ".g*.s*")
	if len(matches) != 2 {
		t.Fatalf("after two saves, %d segment files remain (%v), want 2", len(matches), matches)
	}
	for _, f := range matches {
		if g, ok := parseGeneration(path, f); !ok || g != 2 {
			t.Fatalf("leftover segment %s not of generation 2", f)
		}
	}
	if _, _, err := LoadShardedResolverFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCrashWindows: a save that dies at any fault site — segment
// write, segment sync, manifest rename — leaves the previous artifact
// fully loadable with its original contents.
func TestShardedCrashWindows(t *testing.T) {
	cfg, segs, snap := shardedFixture(t, 3)
	grown := func() []*incremental.PartitionSnapshot {
		// A different (bigger) second version, so corruption would show.
		r, err := incremental.FromSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		r.AddBatch(datagen.D1D(0.05).Collection.Profiles[80:120])
		parts, err := partitionSnapshotsOf(r.Snapshot(), 3)
		if err != nil {
			t.Fatal(err)
		}
		return parts
	}()
	for _, site := range []string{FaultSaveCreate, FaultSaveWrite, FaultSaveSync, FaultSaveRename} {
		t.Run(site, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "resolver.snap")
			if err := SaveShardedResolverFile(path, cfg, segs); err != nil {
				t.Fatal(err)
			}
			inj := fault.New(7)
			inj.Arm(site, fault.Spec{Times: 1})
			SetInjector(inj)
			defer SetInjector(nil)
			if err := SaveShardedResolverFile(path, cfg, grown); err == nil {
				t.Fatalf("save with armed %s fault succeeded", site)
			}
			SetInjector(nil)
			_, gotSegs, err := LoadShardedResolverFile(path)
			if err != nil {
				t.Fatalf("artifact unloadable after failed save: %v", err)
			}
			if !reflect.DeepEqual(gotSegs, segs) {
				t.Fatal("failed save altered the previous artifact")
			}
			// The interrupted generation must not block a retry.
			if err := SaveShardedResolverFile(path, cfg, grown); err != nil {
				t.Fatalf("retry after failed save: %v", err)
			}
			_, gotSegs, err = LoadShardedResolverFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotSegs, grown) {
				t.Fatal("retry did not commit the new artifact")
			}
		})
	}
}

// TestShardedCorruption: a flipped bit in any segment, a missing
// segment, or a mixed-generation segment classifies as corrupt.
func TestShardedCorruption(t *testing.T) {
	cfg, segs, _ := shardedFixture(t, 2)
	newSaved := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "resolver.snap")
		if err := SaveShardedResolverFile(path, cfg, segs); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("bitflip", func(t *testing.T) {
		path := newSaved(t)
		seg := segmentPath(path, 1, 1)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadShardedResolverFile(path); !errors.Is(err, ErrCorruptArtifact) {
			t.Fatalf("bit-flipped segment: err = %v, want ErrCorruptArtifact", err)
		}
	})
	t.Run("missing-segment", func(t *testing.T) {
		path := newSaved(t)
		if err := os.Remove(segmentPath(path, 1, 0)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadShardedResolverFile(path); !errors.Is(err, ErrCorruptArtifact) {
			t.Fatalf("missing segment: err = %v, want ErrCorruptArtifact", err)
		}
	})
	t.Run("cross-shard-swap", func(t *testing.T) {
		path := newSaved(t)
		a, b := segmentPath(path, 1, 0), segmentPath(path, 1, 1)
		tmp := a + ".swap"
		if err := os.Rename(a, tmp); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(b, a); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, b); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadShardedResolverFile(path); !errors.Is(err, ErrCorruptArtifact) {
			t.Fatalf("swapped segments: err = %v, want ErrCorruptArtifact", err)
		}
	})
	// Well-formed segments whose profile counts cannot interleave into
	// one dense arrival order are refused, not merged out of range.
	t.Run("unbalanced", func(t *testing.T) {
		moved := []*incremental.PartitionSnapshot{
			{Shard: 0, Shards: 2, Profiles: segs[0].Profiles, BlocksOf: segs[0].BlocksOf},
			{Shard: 1, Shards: 2, Profiles: segs[1].Profiles[:len(segs[1].Profiles)-2], BlocksOf: segs[1].BlocksOf[:len(segs[1].BlocksOf)-2]},
		}
		path := filepath.Join(t.TempDir(), "resolver.snap")
		if err := SaveShardedResolverFile(path, cfg, moved); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadAnyResolverFile(path); !errors.Is(err, ErrCorruptArtifact) {
			t.Fatalf("unbalanced segments: err = %v, want ErrCorruptArtifact", err)
		}
	})
}

// TestShardedDeterministicBytes: saving the same segments twice yields
// byte-identical segment files (sorted keys, no map-order leakage).
func TestShardedDeterministicBytes(t *testing.T) {
	cfg, segs, _ := shardedFixture(t, 2)
	pathA := filepath.Join(t.TempDir(), "a.snap")
	pathB := filepath.Join(t.TempDir(), "b.snap")
	if err := SaveShardedResolverFile(pathA, cfg, segs); err != nil {
		t.Fatal(err)
	}
	if err := SaveShardedResolverFile(pathB, cfg, segs); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		a, err := os.ReadFile(segmentPath(pathA, 1, k))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(segmentPath(pathB, 1, k))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("segment %d bytes differ between identical saves", k)
		}
	}
}
