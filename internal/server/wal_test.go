package server

import (
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"metablocking/internal/core"
	"metablocking/internal/fault"
	"metablocking/internal/incremental"
	"metablocking/internal/shard"
)

// walConfig is disk mode with a memtable budget far above the test
// collections, so nothing checkpoints automatically: everything the
// restart recovers, it recovers from the write-ahead log.
func walConfig(dir string, shards int) Config {
	return Config{
		Resolver:         incremental.Config{Scheme: core.JS, K: 4, MaxBlockSize: 40},
		Shards:           shards,
		MaxBatch:         1,
		DiskDir:          dir,
		MemtableBudget:   32 << 20,
		DiskCompactAfter: 2,
	}
}

// TestServerWALSurvivesRestart is the serving-stack slice of the
// zero-loss claim: a disk server that never checkpoints still recovers
// every acknowledged resolve across a restart, purely from the WAL,
// and keeps answering bit-identically to an in-memory oracle.
func TestServerWALSurvivesRestart(t *testing.T) {
	profiles := testProfiles(t, 60)
	for _, shards := range []int{1, 4} {
		dir := filepath.Join(t.TempDir(), "index")
		cfg := walConfig(dir, shards)
		serial, err := incremental.NewResolver(cfg.Resolver)
		if err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, cfg)
		ctx := context.Background()
		for i, p := range profiles[:40] {
			want, _ := serial.Resolve(p)
			got, err := s.Resolve(ctx, p)
			if err != nil {
				t.Fatalf("shards=%d: resolve %d: %v", shards, i, err)
			}
			if !reflect.DeepEqual(got.BatchResult, want) {
				t.Fatalf("shards=%d: arrival %d diverged", shards, i)
			}
		}
		st := s.Status()
		if st.Checkpoint != 0 {
			t.Fatalf("shards=%d: unexpected checkpoint %d — the test needs a WAL-only recovery", shards, st.Checkpoint)
		}
		if st.Config.WalSync != WALSyncAlways {
			t.Fatalf("shards=%d: effective wal_sync %q, want %q", shards, st.Config.WalSync, WALSyncAlways)
		}
		if len(st.Warnings) != 0 {
			t.Fatalf("shards=%d: unexpected warnings %v at full durability", shards, st.Warnings)
		}
		var appends, syncs int64
		for _, sh := range st.Shards {
			if sh.Disk != nil {
				appends += sh.Disk.WalAppends
				syncs += sh.Disk.WalSyncs
			}
		}
		if appends != 40 {
			t.Fatalf("shards=%d: %d wal appends for 40 commits", shards, appends)
		}
		if syncs == 0 {
			t.Fatalf("shards=%d: no group-commit syncs under wal_sync=always", shards)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2 := newTestServer(t, cfg)
		if s2.Size() != 40 {
			t.Fatalf("shards=%d: restart recovered %d profiles, want 40 — acknowledged writes lost", shards, s2.Size())
		}
		for i, p := range profiles[40:] {
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
			t.Fatalf("shards=%d: canonical snapshot diverged after WAL-only restart", shards)
		}
	}
}

// TestServerWALDisabled pins the opt-out: without the log the restart
// rolls back to the last checkpoint (here: empty), and the status
// endpoint warns about the traded-away durability.
func TestServerWALDisabled(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "index")
	cfg := walConfig(dir, 2)
	cfg.WALDisabled = true
	s := newTestServer(t, cfg)
	ctx := context.Background()
	for _, p := range testProfiles(t, 20) {
		if _, err := s.Resolve(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Status()
	if !st.Config.WalDisabled {
		t.Fatal("status does not report wal_disabled")
	}
	found := slices.IndexFunc(st.Warnings, func(w string) bool { return strings.HasPrefix(w, "wal_disabled") }) >= 0
	if !found {
		t.Fatalf("status warnings %v lack the wal_disabled warning", st.Warnings)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, cfg)
	if s2.Size() != 0 {
		t.Fatalf("wal-disabled restart recovered %d profiles, want rollback to the empty checkpoint", s2.Size())
	}
}

// TestServerWALSyncOffWarns pins the middle policy surface: wal_sync=off
// is accepted, reported, and flagged; an unknown policy is refused.
func TestServerWALSyncOffWarns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "index")
	cfg := walConfig(dir, 1)
	cfg.WALSync = WALSyncOff
	s := newTestServer(t, cfg)
	st := s.Status()
	if st.Config.WalSync != WALSyncOff {
		t.Fatalf("effective wal_sync %q, want off", st.Config.WalSync)
	}
	if len(st.Warnings) == 0 || !strings.HasPrefix(st.Warnings[0], "wal_sync=off") {
		t.Fatalf("status warnings %v lack the wal_sync=off warning", st.Warnings)
	}
	s.Close()

	bad := walConfig(filepath.Join(t.TempDir(), "index2"), 1)
	bad.WALSync = "sometimes"
	if _, err := New(bad); err == nil {
		t.Fatal("server accepted an unknown wal sync policy")
	}
}

// TestGroupCommitCoalescesWithoutWindow: group commit needs no batch
// window to amortize. While one batch's fsync barrier runs, concurrent
// arrivals queue behind it and the next fill takes them all, so eight
// concurrent commits cost fewer than eight barriers — and every one of
// them is acknowledged durable.
func TestGroupCommitCoalescesWithoutWindow(t *testing.T) {
	const writers = 8
	profiles := testProfiles(t, writers)
	dir := filepath.Join(t.TempDir(), "index")
	cfg := walConfig(dir, 1)
	cfg.MaxBatch = 64
	inj := fault.New(1)
	s := newTestServer(t, cfg, WithFault(inj))
	// Pin the first barrier long enough for every writer to queue behind it.
	inj.Arm(shard.WalSyncSite(0), fault.Spec{Delay: 50 * time.Millisecond, Times: 1})

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for _, p := range profiles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Resolve(context.Background(), p); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var syncs int64
	for _, sh := range s.Status().Shards {
		if sh.Disk != nil {
			syncs += sh.Disk.WalSyncs
		}
	}
	t.Logf("%d wal syncs for %d concurrent commits", syncs, writers)
	if syncs == 0 || syncs >= writers {
		t.Fatalf("%d wal syncs for %d concurrent commits: group commit did not coalesce", syncs, writers)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := newTestServer(t, cfg).Size(); got != writers {
		t.Fatalf("restart recovered %d profiles, want %d — acknowledged writes lost", got, writers)
	}
}

// TestServerWALSyncFaultFailsResolve pins the group-commit contract
// under wal_sync=always: when the sync barrier fails, the batch's
// resolves are answered with errors — never acknowledged as durable —
// and the server keeps serving once the fault drains (at-least-once:
// the failed attempt's commit stands).
func TestServerWALSyncFaultFailsResolve(t *testing.T) {
	profiles := testProfiles(t, 10)
	dir := filepath.Join(t.TempDir(), "index")
	cfg := walConfig(dir, 1)
	inj := fault.New(1)
	s := newTestServer(t, cfg, WithFault(inj))
	ctx := context.Background()
	for _, p := range profiles[:5] {
		if _, err := s.Resolve(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	inj.Arm(shard.WalSyncSite(0), fault.Spec{Times: 1})
	if _, err := s.Resolve(ctx, profiles[5]); err == nil {
		t.Fatal("resolve acknowledged despite a failed group-commit sync")
	} else if !strings.Contains(err.Error(), "wal sync") {
		t.Fatalf("unexpected error: %v", err)
	}
	if got := s.Metrics().Counter(CtrWalSyncFailed).Value(); got != 1 {
		t.Fatalf("wal_sync_failures counter = %d, want 1", got)
	}
	// The fault drained; the commit stood (ID consumed) and serving resumes.
	res, err := s.Resolve(ctx, profiles[6])
	if err != nil {
		t.Fatalf("resolve after drained fault: %v", err)
	}
	if res.ID != 6 {
		t.Fatalf("post-fault resolve got ID %d, want 6 (the failed barrier's commit stands)", res.ID)
	}
}
