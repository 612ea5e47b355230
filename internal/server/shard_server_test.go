package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"metablocking/internal/core"
	"metablocking/internal/fault"
	"metablocking/internal/incremental"
	"metablocking/internal/shard"
	"metablocking/internal/store"
)

// TestShardedBatchedEqualsSerial is the sharded acceptance load test:
// concurrent clients drive the HTTP micro-batching path at shard counts
// {1, 4, 16}, and every response — IDs, candidate sets, exact weights —
// must match a serial one-at-a-time Resolver fed the same arrival order.
// The canonical snapshot must also be independent of the shard count.
func TestShardedBatchedEqualsSerial(t *testing.T) {
	const requests = 300
	profiles := testProfiles(t, requests)
	for _, shards := range []int{1, 4, 16} {
		for _, clients := range []int{1, 4} {
			cfg := Config{
				Resolver:    incremental.Config{Scheme: core.ECBS, K: 5},
				Shards:      shards,
				BatchWindow: time.Millisecond,
				MaxBatch:    32,
				QueueDepth:  4096, // never shed: every request participates
			}
			s := newTestServer(t, cfg)
			ts := httptest.NewServer(s.Handler())
			resps, err := resolveHTTP(ts, clients, profiles)
			if err != nil {
				t.Fatalf("shards=%d clients=%d: %v", shards, clients, err)
			}
			byID := make([]*resolved, requests)
			for i := range resps {
				r := &resps[i]
				if int(r.id) < 0 || int(r.id) >= requests || byID[r.id] != nil {
					t.Fatalf("shards=%d clients=%d: IDs not dense: %d", shards, clients, r.id)
				}
				byID[r.id] = r
			}
			serial, err := incremental.NewResolver(cfg.Resolver)
			if err != nil {
				t.Fatal(err)
			}
			for id, r := range byID {
				_, want := serial.Add(r.profile)
				if !reflect.DeepEqual(r.candidates, want) {
					t.Fatalf("shards=%d clients=%d arrival %d: candidates diverged from serial",
						shards, clients, id)
				}
			}
			if !reflect.DeepEqual(s.Snapshot(), serial.Snapshot()) {
				t.Fatalf("shards=%d clients=%d: canonical snapshot diverged from serial", shards, clients)
			}
			ts.Close()
			s.Close()
		}
	}
}

// TestShardedSnapshotRoundTrips: servers at shard counts {1, 4, 16} fed
// the same arrivals write byte-identical artifacts, each the only file in
// its directory, and every one reloads at shard counts {1, 2, 16} to the
// serial Resolver's snapshot.
func TestShardedSnapshotRoundTrips(t *testing.T) {
	rcfg := incremental.Config{Scheme: core.JS, K: 5}
	profiles := testProfiles(t, 40)
	serial, err := incremental.NewResolver(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	serial.AddBatch(profiles)
	want := serial.Snapshot()
	var first []byte
	for _, shards := range []int{1, 4, 16} {
		s := newTestServer(t, Config{Resolver: rcfg, Shards: shards})
		for _, p := range profiles {
			if _, err := s.Resolve(context.Background(), p); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "resolver.snap")
		if n, err := s.SnapshotFile(path); err != nil || n != 40 {
			t.Fatalf("shards=%d snapshot: n=%d err=%v", shards, n, err)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
			t.Fatalf("shards=%d: snapshot left %d files (%v), want 1", shards, len(entries), err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = raw
		} else if !bytes.Equal(raw, first) {
			t.Fatalf("shards=%d: artifact differs from the one-shard server's", shards)
		}
		for _, reload := range []int{1, 2, 16} {
			r := newTestServer(t, Config{Resolver: rcfg, Shards: reload})
			if n, err := r.ReloadFile(path); err != nil || n != 40 {
				t.Fatalf("shards=%d→%d reload: n=%d err=%v", shards, reload, n, err)
			}
			if !reflect.DeepEqual(r.Snapshot(), want) {
				t.Fatalf("shards=%d→%d: reloaded snapshot diverged from serial", shards, reload)
			}
			r.Close()
		}
	}
}

// TestSnapshotRecordsTheServedConfig: a server started with K = 10 that
// reloaded a K = 5 artifact serves K = 5, and the artifact it writes says
// K = 5 — so a fresh server with the same flags, reloaded from it, answers
// every later arrival as the first one does.
func TestSnapshotRecordsTheServedConfig(t *testing.T) {
	profiles := testProfiles(t, 60)
	serial, err := incremental.NewResolver(incremental.Config{Scheme: core.JS, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	serial.AddBatch(profiles[:40])
	dir := t.TempDir()
	k5 := filepath.Join(dir, "k5.snap")
	if err := store.SaveResolverFile(k5, serial.Snapshot()); err != nil {
		t.Fatal(err)
	}
	flags := Config{Resolver: incremental.Config{Scheme: core.JS, K: 10}, Shards: 4}
	served := newTestServer(t, flags)
	if _, err := served.ReloadFile(k5); err != nil {
		t.Fatal(err)
	}
	again := filepath.Join(dir, "again.snap")
	if _, err := served.SnapshotFile(again); err != nil {
		t.Fatal(err)
	}
	snap, err := store.LoadAnyResolverFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Config.K != 5 {
		t.Fatalf("snapshot records K = %d, want the served 5", snap.Config.K)
	}
	fresh := newTestServer(t, flags)
	if _, err := fresh.ReloadFile(again); err != nil {
		t.Fatal(err)
	}
	for i, p := range profiles[40:] {
		want, err := served.Resolve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.Resolve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("arrival %d: fresh server answers %+v, want %+v", i, got, want)
		}
	}
}

// TestStatusReportsTheServedConfig: a K = 10, 4-shard server that reloaded
// an artifact with K = 5, MaxBlockSize 7 and MinTokenLength 2 reports
// those three in /v1/admin/status — what the index serves, not the flags.
func TestStatusReportsTheServedConfig(t *testing.T) {
	profiles := testProfiles(t, 40)
	served := incremental.Config{Scheme: core.JS, K: 5, MaxBlockSize: 7, MinTokenLength: 2}
	serial, err := incremental.NewResolver(served)
	if err != nil {
		t.Fatal(err)
	}
	serial.AddBatch(profiles)
	path := filepath.Join(t.TempDir(), "k5.snap")
	if err := store.SaveResolverFile(path, serial.Snapshot()); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Resolver: incremental.Config{Scheme: core.JS, K: 10}, Shards: 4})
	if _, err := s.ReloadFile(path); err != nil {
		t.Fatal(err)
	}
	got := s.Status().Config
	if got.K != 5 || got.MaxBlockSize != 7 || got.MinTokenLength != 2 || got.Scheme != "JS" {
		t.Fatalf("status reports scheme %q K %d MaxBlockSize %d MinTokenLength %d, want JS 5 7 2",
			got.Scheme, got.K, got.MaxBlockSize, got.MinTokenLength)
	}
}

// TestShardedFaultEnvelopes drives per-shard fault injection end to end
// through the HTTP surface: gather failures surface as 500 "internal"
// envelopes until the failing shard is marked down, after which resolves
// homed on the downed shard get 503 "shard_down" and the rest keep
// working with partial gathers. /v1/admin/status reports the down shard.
func TestShardedFaultEnvelopes(t *testing.T) {
	inj := fault.New(1)
	s := newTestServer(t, Config{
		Resolver:         incremental.Config{Scheme: core.JS, K: 5},
		Shards:           2,
		MaxBatch:         1,
		QueueDepth:       64,
		BreakerThreshold: -1, // isolate shard health from the server breaker
	}, WithFault(inj))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	profiles := testProfiles(t, 8)

	post := func(i int) (int, ErrorBody) {
		t.Helper()
		raw, err := marshalProfile(profiles[i])
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/resolve", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, _ := io.ReadAll(resp.Body)
		var e ErrorResponse
		if resp.StatusCode != http.StatusOK {
			if err := json.Unmarshal(payload, &e); err != nil || e.Error.Code == "" {
				t.Fatalf("non-2xx without envelope: %d %s", resp.StatusCode, payload)
			}
		}
		return resp.StatusCode, e.Error
	}

	// Shard 1's gather fails persistently: the group's DownAfter (default
	// 3) consecutive failures surface as per-request 500s, then mark the
	// shard down.
	inj.Arm(shard.GatherSite(1), fault.Spec{Err: fault.ErrInjected})
	for i := 0; i < 3; i++ {
		if code, e := post(0); code != 500 || e.Code != CodeInternal {
			t.Fatalf("failure %d = %d %+v, want 500 internal", i, code, e)
		}
	}
	// Shard 1 is down now. ID 0 homes on shard 0: the resolve succeeds
	// with a partial gather.
	if code, e := post(1); code != 200 {
		t.Fatalf("partial resolve = %d %+v, want 200", code, e)
	}
	// ID 1 homes on shard 1: refused with the stable shard_down code.
	if code, e := post(2); code != 503 || e.Code != CodeShardDown {
		t.Fatalf("down-home resolve = %d %+v, want 503 shard_down", code, e)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/admin/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 || st.Shards[0].Down || !st.Shards[1].Down {
		t.Fatalf("status shards = %+v, want shard 1 down", st.Shards)
	}

	// A snapshot swap installs a fresh group: the down mark clears and
	// both shards serve again.
	inj.Disarm(shard.GatherSite(1))
	path := filepath.Join(t.TempDir(), "heal.snap")
	if _, err := s.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReloadFile(path); err != nil {
		t.Fatal(err)
	}
	if code, e := post(3); code != 200 {
		t.Fatalf("post-reload resolve = %d %+v, want 200", code, e)
	}
}
