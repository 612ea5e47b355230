package server

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/incremental"
)

// diskConfig is the disk-mode test configuration: batch size 1 keeps
// request order deterministic, a tiny memtable budget forces seals and
// compactions mid-run.
func diskConfig(dir string, shards int) Config {
	return Config{
		Resolver:         incremental.Config{Scheme: core.JS, K: 4, MaxBlockSize: 40},
		Shards:           shards,
		MaxBatch:         1,
		DiskDir:          dir,
		MemtableBudget:   4 << 10,
		DiskCompactAfter: 2,
	}
}

// TestServerDiskModeMatchesMemory is the serving-stack slice of the
// out-of-core claim: a server in -disk-dir mode answers bit-identically
// to the in-memory resolver while sealing and compacting under a
// memtable budget far below the collection size, survives a
// checkpointed restart with its state intact, and keeps answering
// identically afterwards.
func TestServerDiskModeMatchesMemory(t *testing.T) {
	profiles := testProfiles(t, 160)
	const restartAt = 120
	for _, shards := range []int{1, 4} {
		dir := filepath.Join(t.TempDir(), "index")
		cfg := diskConfig(dir, shards)
		serial, err := incremental.NewResolver(cfg.Resolver)
		if err != nil {
			t.Fatal(err)
		}

		s := newTestServer(t, cfg)
		ctx := context.Background()
		for i, p := range profiles[:restartAt] {
			want, _ := serial.Resolve(p)
			got, err := s.Resolve(ctx, p)
			if err != nil {
				t.Fatalf("shards=%d: resolve %d: %v", shards, i, err)
			}
			if !reflect.DeepEqual(got.BatchResult, want) {
				t.Fatalf("shards=%d: arrival %d diverged:\n got %+v\nwant %+v", shards, i, got.BatchResult, want)
			}
		}
		st := s.Status()
		if st.Checkpoint == 0 {
			t.Fatalf("shards=%d: no automatic checkpoint despite memtable budget", shards)
		}
		var seals, compactions int64
		for _, sh := range st.Shards {
			if sh.Disk != nil {
				seals += sh.Disk.Seals
				compactions += sh.Disk.Compactions
			}
		}
		if seals == 0 || compactions == 0 {
			t.Fatalf("shards=%d: out-of-core path not exercised: %d seals, %d compactions", shards, seals, compactions)
		}

		// /v1/admin/snapshot with no path = checkpoint in place.
		n, err := s.SnapshotFile("")
		if err != nil {
			t.Fatalf("shards=%d: checkpoint: %v", shards, err)
		}
		if n != restartAt {
			t.Fatalf("shards=%d: checkpoint reports %d profiles, want %d", shards, n, restartAt)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// Restart over the same directory: state recovered, answers
		// still bit-identical.
		s2 := newTestServer(t, cfg)
		if s2.Size() != restartAt {
			t.Fatalf("shards=%d: restarted size %d, want %d", shards, s2.Size(), restartAt)
		}
		for i, p := range profiles[restartAt:] {
			want, _ := serial.Resolve(p)
			got, err := s2.Resolve(ctx, p)
			if err != nil {
				t.Fatalf("shards=%d: post-restart resolve %d: %v", shards, i, err)
			}
			if !reflect.DeepEqual(got.BatchResult, want) {
				t.Fatalf("shards=%d: post-restart arrival %d diverged", shards, i)
			}
		}
		if !reflect.DeepEqual(s2.Snapshot(), serial.Snapshot()) {
			t.Fatalf("shards=%d: canonical snapshot diverged after restart", shards)
		}
	}
}

// TestServerDiskConfigMismatchRefused pins the startup guard: a
// directory checkpointed under one resolver configuration refuses to
// serve under another instead of silently changing answers.
func TestServerDiskConfigMismatchRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "index")
	cfg := diskConfig(dir, 2)
	s := newTestServer(t, cfg)
	ctx := context.Background()
	for _, p := range testProfiles(t, 20) {
		if _, err := s.Resolve(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.SnapshotFile(""); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Resolver.Scheme = core.CBS
	if _, err := New(other); err == nil {
		t.Fatal("server accepted a disk dir checkpointed under a different scheme")
	}
}

// TestServerDiskReloadAndExport covers the two snapshot bridges in disk
// mode: reloading a portable artifact replaces the directory's contents
// durably (it survives a restart), and a non-empty snapshot path
// exports a portable artifact an in-memory server can load.
func TestServerDiskReloadAndExport(t *testing.T) {
	profiles := testProfiles(t, 60)
	rcfg := incremental.Config{Scheme: core.JS, K: 4, MaxBlockSize: 40}

	// An in-memory server produces the portable artifact.
	mem := newTestServer(t, Config{Resolver: rcfg, MaxBatch: 1})
	ctx := context.Background()
	for _, p := range profiles[:40] {
		if _, err := mem.Resolve(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	artifact := filepath.Join(t.TempDir(), "resolver.snap")
	if _, err := mem.SnapshotFile(artifact); err != nil {
		t.Fatal(err)
	}
	wantSnap := mem.Snapshot()

	// Disk server adopts it via reload; the swap must survive a restart.
	dir := filepath.Join(t.TempDir(), "index")
	cfg := diskConfig(dir, 2)
	s := newTestServer(t, cfg)
	for _, p := range profiles[40:] {
		if _, err := s.Resolve(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	n, err := s.ReloadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("reload reports %d profiles, want 40", n)
	}
	if !reflect.DeepEqual(s.Snapshot(), wantSnap) {
		t.Fatal("disk server's snapshot differs from the reloaded artifact")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, cfg)
	if s2.Size() != 40 {
		t.Fatalf("restart after reload: size %d, want 40", s2.Size())
	}
	if !reflect.DeepEqual(s2.Snapshot(), wantSnap) {
		t.Fatal("reloaded contents did not survive the restart")
	}

	// Export: a non-empty path writes the portable resolver artifact.
	exported := filepath.Join(t.TempDir(), "exported.snap")
	if _, err := s2.SnapshotFile(exported); err != nil {
		t.Fatal(err)
	}
	mem2 := newTestServer(t, Config{Resolver: rcfg, MaxBatch: 1})
	if _, err := mem2.ReloadFile(exported); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mem2.Snapshot(), wantSnap) {
		t.Fatal("exported artifact loads to different contents")
	}
}
