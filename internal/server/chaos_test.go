package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"metablocking/internal/core"
	"metablocking/internal/fault"
	"metablocking/internal/incremental"
	"metablocking/internal/par"
	"metablocking/internal/store"
)

// TestInjectedPanicFailsOneRequestOnly is the panic-isolation acceptance
// test: with a panic armed at the resolve site for exactly one trigger,
// exactly one concurrent request fails (with a *par.PanicError), its
// batch-mates all succeed with dense IDs, the batcher survives, and
// server.panics_recovered reads 1.
func TestInjectedPanicFailsOneRequestOnly(t *testing.T) {
	inj := fault.New(1)
	inj.Arm(FaultResolve, fault.Spec{Panic: true, Times: 1})
	s := newTestServer(t, Config{
		Resolver:    incremental.Config{Scheme: core.JS, K: 5},
		BatchWindow: 20 * time.Millisecond,
		MaxBatch:    16,
		QueueDepth:  64,
	}, WithFault(inj))
	const n = 6
	profiles := testProfiles(t, n+1)

	var wg sync.WaitGroup
	errc := make(chan error, n)
	ids := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Resolve(context.Background(), profiles[i])
			if err != nil {
				errc <- err
				return
			}
			ids <- int(res.ID)
		}(i)
	}
	wg.Wait()
	close(errc)
	close(ids)

	var failures []error
	for err := range errc {
		failures = append(failures, err)
	}
	if len(failures) != 1 {
		t.Fatalf("%d requests failed, want exactly 1: %v", len(failures), failures)
	}
	var pe *par.PanicError
	if !errors.As(failures[0], &pe) {
		t.Fatalf("failure is %T (%v), want *par.PanicError", failures[0], failures[0])
	}
	// The panicking request never touched the index: survivors got dense IDs.
	seen := make(map[int]bool)
	for id := range ids {
		if id < 0 || id >= n-1 || seen[id] {
			t.Fatalf("survivor IDs not dense 0..%d: got %d", n-2, id)
		}
		seen[id] = true
	}
	if got := s.Metrics().Counter(CtrPanics).Value(); got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}
	// The process — and the batcher — are still alive.
	if res, err := s.Resolve(context.Background(), profiles[n]); err != nil || int(res.ID) != n-1 {
		t.Fatalf("resolve after panic: id=%d err=%v", res.ID, err)
	}
	if s.Metrics().Text(TextLastError).Value() == "" {
		t.Fatal("server.last_error not recorded")
	}
}

// TestInjectedPanicHTTP500 drives the same scenario through the HTTP
// layer: the poisoned request gets a 500, every other request a 200, and
// the server keeps serving.
func TestInjectedPanicHTTP500(t *testing.T) {
	inj := fault.New(1)
	inj.Arm(FaultResolve, fault.Spec{Panic: true, After: 1, Times: 1})
	s := newTestServer(t, Config{
		Resolver:   incremental.Config{Scheme: core.CBS},
		MaxBatch:   1,
		QueueDepth: 64,
	}, WithFault(inj))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	profiles := testProfiles(t, 3)
	var statuses []int
	for _, p := range profiles {
		raw, err := marshalProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/resolve", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		statuses = append(statuses, resp.StatusCode)
	}
	if want := []int{200, 500, 200}; fmt.Sprint(statuses) != fmt.Sprint(want) {
		t.Fatalf("statuses = %v, want %v", statuses, want)
	}
	if got := s.Metrics().Counter(CtrPanics).Value(); got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}
}

// TestDegradedModeServesReads opens the circuit breaker with injected
// resolve failures and checks the degraded contract: requests keep being
// answered read-only from the last good index (ID -1, Degraded true, no
// error), and a successful half-open probe closes the circuit again.
func TestDegradedModeServesReads(t *testing.T) {
	inj := fault.New(1)
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	s := newTestServer(t, Config{
		Resolver:         incremental.Config{Scheme: core.JS, K: 5},
		MaxBatch:         1, // one request per index pass: deterministic breaker stepping
		QueueDepth:       64,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	}, WithFault(inj), WithClock(clk.now))
	profiles := testProfiles(t, 8)
	ctx := context.Background()

	// Seed the index with three good profiles.
	for i := 0; i < 3; i++ {
		if _, err := s.Resolve(ctx, profiles[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Two consecutive injected failures trip the breaker.
	inj.Arm(FaultResolve, fault.Spec{Err: fault.ErrInjected})
	for i := 0; i < 2; i++ {
		if _, err := s.Resolve(ctx, profiles[3]); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("failure %d: err = %v, want injected", i, err)
		}
	}
	if !s.Degraded() {
		t.Fatal("breaker not open after threshold failures")
	}
	if got := s.Metrics().Gauge(GaugeDegraded).Value(); got != 1 {
		t.Fatalf("degraded gauge = %d, want 1", got)
	}

	// Degraded answers: read-only, no error, no mutation — even though the
	// fault is still armed (the write path is never entered).
	sizeBefore := s.Size()
	for i := 0; i < 3; i++ {
		res, err := s.Resolve(ctx, profiles[4])
		if err != nil {
			t.Fatalf("degraded resolve errored: %v", err)
		}
		if !res.Degraded || res.ID != -1 {
			t.Fatalf("degraded answer = {ID:%d Degraded:%v}, want {ID:-1 Degraded:true}", res.ID, res.Degraded)
		}
	}
	if s.Size() != sizeBefore {
		t.Fatalf("degraded mode mutated the index: %d → %d", sizeBefore, s.Size())
	}
	if got := s.Metrics().Counter(CtrDegradedSrv).Value(); got != 3 {
		t.Fatalf("degraded_served = %d, want 3", got)
	}

	// Heal the fault, pass the cooldown: the half-open probe succeeds and
	// the circuit closes.
	inj.Disarm(FaultResolve)
	clk.advance(time.Minute)
	res, err := s.Resolve(ctx, profiles[5])
	if err != nil || res.Degraded || res.ID == -1 {
		t.Fatalf("probe resolve = {ID:%d Degraded:%v} err=%v, want a real ID", res.ID, res.Degraded, err)
	}
	if s.Degraded() {
		t.Fatal("still degraded after successful probe")
	}
	if got := s.Metrics().Gauge(GaugeDegraded).Value(); got != 0 {
		t.Fatalf("degraded gauge = %d, want 0", got)
	}
}

// TestFailedProbeReopens: while the write path keeps failing, the single
// half-open probe fails and the circuit goes straight back to degraded.
func TestFailedProbeReopens(t *testing.T) {
	inj := fault.New(1)
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	s := newTestServer(t, Config{
		Resolver:         incremental.Config{Scheme: core.CBS},
		MaxBatch:         1,
		QueueDepth:       64,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
	}, WithFault(inj), WithClock(clk.now))
	profiles := testProfiles(t, 3)
	ctx := context.Background()

	inj.Arm(FaultResolve, fault.Spec{Err: fault.ErrInjected})
	if _, err := s.Resolve(ctx, profiles[0]); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if !s.Degraded() {
		t.Fatal("breaker not open")
	}
	clk.advance(time.Minute)
	// Probe runs the still-failing write path: the caller sees the error,
	// the circuit reopens.
	if _, err := s.Resolve(ctx, profiles[1]); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("probe err = %v, want injected", err)
	}
	if !s.Degraded() {
		t.Fatal("breaker closed after failed probe")
	}
	// Back inside the new cooldown: degraded answers again.
	res, err := s.Resolve(ctx, profiles[2])
	if err != nil || !res.Degraded {
		t.Fatalf("post-probe resolve = {Degraded:%v} err=%v, want degraded", res.Degraded, err)
	}
}

// TestCorruptReloadNeverTouchesLiveIndex is the verify-before-swap
// acceptance test: reloading a corrupted snapshot under live resolve
// traffic returns 422, fails or drops zero in-flight requests, leaves the
// live index serving, and a subsequent good reload still works.
func TestCorruptReloadNeverTouchesLiveIndex(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snap")
	bad := filepath.Join(dir, "bad.snap")

	s := newTestServer(t, Config{
		Resolver:    incremental.Config{Scheme: core.JS, K: 5},
		BatchWindow: time.Millisecond,
		MaxBatch:    16,
		QueueDepth:  4096, // never shed: every in-flight request must succeed
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const seed = 10
	profiles := testProfiles(t, seed+40)
	for i := 0; i < seed; i++ {
		if _, err := s.Resolve(context.Background(), profiles[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.SnapshotFile(good); err != nil {
		t.Fatal(err)
	}
	// Corrupt a copy: flip one bit in the payload.
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Live traffic while the corrupt reload lands.
	var wg sync.WaitGroup
	errc := make(chan error, 40)
	for i := seed; i < seed+40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, err := marshalProfile(profiles[i])
			if err != nil {
				errc <- err
				return
			}
			resp, err := ts.Client().Post(ts.URL+"/v1/resolve", "application/json", bytes.NewReader(raw))
			if err != nil {
				errc <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("resolve status %d", resp.StatusCode)
			}
		}(i)
	}

	body, _ := json.Marshal(ReloadRequest{Path: bad})
	resp, err := ts.Client().Post(ts.URL+"/v1/admin/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt reload status = %d, want 422 (%s: %s)", resp.StatusCode, e.Error.Code, e.Error.Message)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("in-flight request failed during corrupt reload: %v", err)
	}
	if got := s.Metrics().Counter(CtrReloads).Value(); got != 0 {
		t.Fatalf("reloads = %d: the corrupt artifact was swapped in", got)
	}
	if got := s.Metrics().Counter(CtrCorruptLoads).Value(); got != 1 {
		t.Fatalf("corrupt_loads = %d, want 1", got)
	}
	if got := s.Size(); got != seed+40 {
		t.Fatalf("index size = %d, want %d (live index must be untouched)", got, seed+40)
	}

	// The good artifact still swaps in fine.
	body, _ = json.Marshal(ReloadRequest{Path: good})
	resp, err = ts.Client().Post(ts.URL+"/v1/admin/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good reload status = %d", resp.StatusCode)
	}
	if got := s.Size(); got != seed {
		t.Fatalf("size after good reload = %d, want %d", got, seed)
	}
}

// TestVersionMismatchReload422 writes a future-versioned artifact and
// checks the reload path classifies it as 422, not 500.
func TestVersionMismatchReload422(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "future.snap")
	if err := store.SaveResolverFile(path, &incremental.Snapshot{
		Config: incremental.Config{Scheme: core.JS},
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[4]++ // container version byte
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	assertReload422(t, path, CodeVersionMismatch)
}

// TestVersionOneReload422: resolver artifacts no longer read are refused
// as a version mismatch through /v1/admin/reload: 422 version_mismatch
// and one corrupt-load count. The files are store's testdata fixtures: a
// format-version-1 artifact (the gob payload that stored the token
// index) and a manifest of the retired manifest+segments layout.
func TestVersionOneReload422(t *testing.T) {
	for _, name := range []string{"resolver-v1.snap", "sharded-v1.snap"} {
		assertReload422(t, filepath.Join("..", "store", "testdata", name), CodeVersionMismatch)
	}
}

// TestRawGobReload422: a resolver artifact without the checksummed
// container — the pre-container raw-gob format — is rejected like any
// other corruption, never gob-decoded blind (the typed error is pinned by
// store's TestRawGobWithoutContainerClassified).
func TestRawGobReload422(t *testing.T) {
	var raw bytes.Buffer
	if err := store.WriteResolver(&raw, &incremental.Snapshot{
		Config: incremental.Config{Scheme: core.JS},
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "raw.snap")
	if err := os.WriteFile(path, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	assertReload422(t, path, CodeCorruptArtifact)
}

// assertReload422 reloads the artifact at path into a fresh JS server and
// requires the 422 mapping with the given error code plus exactly one
// corrupt-load count.
func assertReload422(t *testing.T, path, code string) {
	t.Helper()
	s := newTestServer(t, Config{Resolver: incremental.Config{Scheme: core.JS}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(ReloadRequest{Path: path})
	resp, err := ts.Client().Post(ts.URL+"/v1/admin/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || env.Error.Code != code {
		t.Fatalf("reload of %s: status %d %q, want 422 %q", filepath.Base(path), resp.StatusCode, env.Error.Code, code)
	}
	if got := s.Metrics().Counter(CtrCorruptLoads).Value(); got != 1 {
		t.Fatalf("corrupt_loads = %d, want 1", got)
	}
}

// TestRequestTimeout arms a resolve delay longer than the configured
// per-request deadline: the client gets a bounded 408 instead of a hung
// connection, and the next (undelayed) request works.
func TestRequestTimeout(t *testing.T) {
	inj := fault.New(1)
	inj.Arm(FaultResolve, fault.Spec{Delay: 300 * time.Millisecond, Times: 1})
	s := newTestServer(t, Config{
		Resolver:       incremental.Config{Scheme: core.CBS},
		MaxBatch:       1,
		QueueDepth:     64,
		RequestTimeout: 50 * time.Millisecond,
	}, WithFault(inj))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	profiles := testProfiles(t, 2)
	post := func(i int) int {
		raw, err := marshalProfile(profiles[i])
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/resolve", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(0); got != http.StatusRequestTimeout {
		t.Fatalf("delayed resolve status = %d, want 408", got)
	}
	// The batcher is still sleeping out the injected delay; give it time
	// to finish before the undelayed follow-up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := post(1); got == http.StatusOK {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("follow-up resolve status = %d, want 200", got)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
