package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/dataio"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
	"metablocking/internal/store"
)

// testProfiles returns n synthetic profiles, JSON-normalized exactly as the
// HTTP path normalizes them (marshal → parse groups attributes by sorted
// name), so serial replays see byte-identical profiles.
func testProfiles(t testing.TB, n int) []entity.Profile {
	t.Helper()
	ds := datagen.D1D(0.1)
	if len(ds.Collection.Profiles) < n {
		t.Fatalf("dataset has %d profiles, need %d", len(ds.Collection.Profiles), n)
	}
	out := make([]entity.Profile, n)
	for i := 0; i < n; i++ {
		raw, err := marshalProfile(ds.Collection.Profiles[i])
		if err != nil {
			t.Fatal(err)
		}
		p, err := dataio.ParseProfileJSON(raw)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

func newTestServer(t testing.TB, cfg Config, opts ...Option) *Server {
	t.Helper()
	s, err := New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// resolved is one /v1/resolve answer: the profile posted, the ID the
// server assigned it and the candidates it returned.
type resolved struct {
	profile    entity.Profile
	id         entity.ID
	candidates []incremental.Candidate
}

// resolveHTTP posts every profile once to ts's /v1/resolve from clients
// concurrent goroutines and returns the answers in profile order. A
// transport error or any non-200 response is an error: the callers
// configure queues that never shed.
func resolveHTTP(ts *httptest.Server, clients int, profiles []entity.Profile) ([]resolved, error) {
	out := make([]resolved, len(profiles))
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(profiles) {
					return
				}
				r, err := postResolve(ts, profiles[i])
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// marshalProfile encodes a profile as one JSON record of the shape
// dataio.ParseProfileJSON reads, attributes grouped by name.
func marshalProfile(p entity.Profile) ([]byte, error) {
	attrs := make(map[string][]string, len(p.Attributes))
	for _, a := range p.Attributes {
		attrs[a.Name] = append(attrs[a.Name], a.Value)
	}
	return json.Marshal(struct {
		ID         int                 `json:"id"`
		Source     int                 `json:"source"`
		Attributes map[string][]string `json:"attributes"`
	}{int(p.ID), 1, attrs})
}

func postResolve(ts *httptest.Server, p entity.Profile) (resolved, error) {
	body, err := marshalProfile(p)
	if err != nil {
		return resolved{}, err
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/resolve", "application/json", bytes.NewReader(body))
	if err != nil {
		return resolved{}, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return resolved{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return resolved{}, fmt.Errorf("status %d: %s", resp.StatusCode, payload)
	}
	var rr ResolveResponse
	if err := json.Unmarshal(payload, &rr); err != nil {
		return resolved{}, err
	}
	r := resolved{profile: p, id: entity.ID(rr.ID)}
	for _, c := range rr.Candidates {
		r.candidates = append(r.candidates, incremental.Candidate{ID: entity.ID(c.ID), Weight: c.Weight})
	}
	return r, nil
}

// TestBatchedEqualsSerial is the acceptance load test: ≥8 concurrent
// clients drive ≥1k requests through the HTTP micro-batching path, and
// the responses must be identical — IDs, candidate sets, exact weights —
// to a serial one-at-a-time Resolver fed the same arrival order.
func TestBatchedEqualsSerial(t *testing.T) {
	cfg := Config{
		Resolver:    incremental.Config{Scheme: core.JS, K: 10},
		BatchWindow: time.Millisecond,
		MaxBatch:    32,
		QueueDepth:  4096, // never shed: every request participates
	}
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const requests = 1200
	profiles := testProfiles(t, requests)
	resps, err := resolveHTTP(ts, 8, profiles)
	if err != nil {
		t.Fatal(err)
	}

	// Recover the server's arrival order from the assigned IDs: they must
	// be dense 0..n-1.
	byID := make([]*resolved, requests)
	for i := range resps {
		r := &resps[i]
		if int(r.id) < 0 || int(r.id) >= requests || byID[r.id] != nil {
			t.Fatalf("IDs not dense: response ID %d", r.id)
		}
		byID[r.id] = r
	}

	// Serial oracle: the same profiles, one Add at a time, in the arrival
	// order the server chose.
	serial, err := incremental.NewResolver(cfg.Resolver)
	if err != nil {
		t.Fatal(err)
	}
	for id, r := range byID {
		_, want := serial.Add(r.profile)
		got := r.candidates
		if len(got) != len(want) {
			t.Fatalf("arrival %d: %d candidates, serial wants %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Weight != want[i].Weight {
				t.Fatalf("arrival %d candidate %d: got (%d, %v), want (%d, %v)",
					id, i, got[i].ID, got[i].Weight, want[i].ID, want[i].Weight)
			}
		}
	}
	if got := s.Metrics().Counter(CtrAccepted).Value(); got != requests {
		t.Fatalf("accepted counter = %d, want %d", got, requests)
	}
	if batches := s.Metrics().Counter(CtrBatches).Value(); batches >= requests {
		t.Errorf("no batching happened: %d batches for %d requests", batches, requests)
	}
}

// TestQueueOverflowSheds stalls the single writer, overflows the bounded
// queue, and checks that surplus requests are shed with ErrQueueFull while
// every accepted request still gets its answer.
func TestQueueOverflowSheds(t *testing.T) {
	s := newTestServer(t, Config{
		Resolver:    incremental.Config{Scheme: core.CBS},
		MaxBatch:    1,
		QueueDepth:  2,
		BatchWindow: time.Millisecond,
	})
	profiles := testProfiles(t, 1)

	s.mu.Lock() // stall the batcher's flush
	const attempts = 20
	type outcome struct {
		res Resolution
		err error
	}
	results := make(chan outcome, attempts)
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Resolve(context.Background(), profiles[0])
			results <- outcome{res, err}
		}()
	}
	// Wait until all attempts have either been accepted or shed: accepted
	// ones are blocked on their reply, shed ones already counted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		acc := s.metrics.Counter(CtrAccepted).Value()
		rej := s.metrics.Counter(CtrRejectedFull).Value()
		if acc+rej == attempts {
			break
		}
		if time.Now().After(deadline) {
			s.mu.Unlock()
			t.Fatalf("admission stuck: accepted %d + rejected %d != %d", acc, rej, attempts)
		}
		time.Sleep(time.Millisecond)
	}
	accepted := int(s.metrics.Counter(CtrAccepted).Value())
	rejected := int(s.metrics.Counter(CtrRejectedFull).Value())
	if rejected == 0 {
		t.Fatal("queue of 2 never overflowed under 20 concurrent submits")
	}
	if accepted == 0 {
		t.Fatal("no request was accepted")
	}
	s.mu.Unlock()
	wg.Wait()
	close(results)

	gotResults, gotShed := 0, 0
	for o := range results {
		switch {
		case errors.Is(o.err, ErrQueueFull):
			gotShed++
		case o.err != nil:
			t.Fatalf("unexpected error: %v", o.err)
		default:
			gotResults++
		}
	}
	if gotResults != accepted || gotShed != rejected {
		t.Fatalf("answers %d/%d, shed %d/%d: accepted requests were dropped",
			gotResults, accepted, gotShed, rejected)
	}
}

// TestHTTPQueueOverflow429 checks the HTTP mapping of backpressure: 429
// with a Retry-After header, and eventual success for accepted posts.
func TestHTTPQueueOverflow429(t *testing.T) {
	s := newTestServer(t, Config{
		Resolver:    incremental.Config{Scheme: core.CBS},
		MaxBatch:    1,
		QueueDepth:  1,
		BatchWindow: time.Millisecond,
		RetryAfter:  3 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.mu.Lock()
	type post struct {
		status     int
		retryAfter string
	}
	const attempts = 10
	results := make(chan post, attempts)
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/resolve", "application/json",
				bytes.NewReader([]byte(`{"attributes":{"name":["jack miller"]}}`)))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- post{resp.StatusCode, resp.Header.Get("Retry-After")}
		}()
	}
	// At least one shed response arrives while the writer is stalled.
	select {
	case p := <-results:
		if p.status != http.StatusTooManyRequests {
			t.Fatalf("first completed status = %d, want 429", p.status)
		}
		if p.retryAfter != "3" {
			t.Fatalf("Retry-After = %q, want \"3\"", p.retryAfter)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no response while writer stalled")
	}
	s.mu.Unlock()
	wg.Wait()
	close(results)
	for p := range results {
		if p.status != http.StatusOK && p.status != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 200 or 429", p.status)
		}
	}
}

// TestReloadZeroFailures hot-swaps snapshots while 8 clients hammer
// /v1/resolve; no request may fail with anything but backpressure.
func TestReloadZeroFailures(t *testing.T) {
	resolverCfg := incremental.Config{Scheme: core.JS, K: 10}
	profiles := testProfiles(t, 500)

	// Pre-block a 100-profile snapshot on disk.
	pre, err := incremental.NewResolver(resolverCfg)
	if err != nil {
		t.Fatal(err)
	}
	pre.AddBatch(profiles[:100])
	snapPath := filepath.Join(t.TempDir(), "resolver.snap")
	if err := store.SaveResolverFile(snapPath, pre.Snapshot()); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{
		Resolver:    resolverCfg,
		BatchWindow: time.Millisecond,
		MaxBatch:    16,
		QueueDepth:  4096,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reload := func() ReloadResponse {
		body, _ := json.Marshal(ReloadRequest{Path: snapPath})
		resp, err := ts.Client().Post(ts.URL+"/v1/admin/reload", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload status %d: %s", resp.StatusCode, payload)
		}
		var rr ReloadResponse
		if err := json.Unmarshal(payload, &rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}

	done := make(chan error, 1)
	go func() {
		_, err := resolveHTTP(ts, 8, profiles[100:])
		done <- err
	}()
	const reloads = 5
	for i := 0; i < reloads; i++ {
		if rr := reload(); rr.Profiles != 100 {
			t.Fatalf("reload %d loaded %d profiles, want 100", i, rr.Profiles)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatalf("reload failed an in-flight request: %v", err)
	}
	// Every response resolved against a swapped-in snapshot carries an ID
	// at or past the snapshot size; pre-swap IDs start at 0. Both are
	// legitimate — what matters is that all succeeded.
	if got := s.Metrics().Counter(CtrReloads).Value(); got != reloads {
		t.Fatalf("reload counter = %d, want %d", got, reloads)
	}
	if size := s.Size(); size < 100 {
		t.Fatalf("size after final reload = %d, want ≥ 100", size)
	}
}

// TestGracefulCloseDrains verifies that Close answers every accepted
// request and rejects new ones with ErrDraining.
func TestGracefulCloseDrains(t *testing.T) {
	s := newTestServer(t, Config{
		Resolver:    incremental.Config{Scheme: core.CBS},
		BatchWindow: 50 * time.Millisecond, // long window: Close must cut it short
		MaxBatch:    8,
		QueueDepth:  64,
	})
	profiles := testProfiles(t, 5)

	type outcome struct {
		res Resolution
		err error
	}
	results := make(chan outcome, len(profiles))
	for i := range profiles {
		go func(p entity.Profile) {
			res, err := s.Resolve(context.Background(), p)
			results <- outcome{res, err}
		}(profiles[i])
	}
	// Wait for all five to be admitted, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.Counter(CtrAccepted).Value() < int64(len(profiles)) {
		if time.Now().After(deadline) {
			t.Fatal("submissions not admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[entity.ID]bool)
	for range profiles {
		o := <-results
		if o.err != nil {
			t.Fatalf("accepted request failed during drain: %v", o.err)
		}
		if seen[o.res.ID] {
			t.Fatalf("duplicate ID %d", o.res.ID)
		}
		seen[o.res.ID] = true
	}
	if s.Ready() {
		t.Fatal("Ready after Close")
	}
	if _, err := s.Resolve(context.Background(), profiles[0]); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-Close Resolve error = %v, want ErrDraining", err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestResolveContextCanceled: an accepted request whose client gives up is
// still processed; only the reply is dropped.
func TestResolveContextCanceled(t *testing.T) {
	s := newTestServer(t, Config{
		Resolver:    incremental.Config{Scheme: core.CBS},
		MaxBatch:    1,
		QueueDepth:  4,
		BatchWindow: time.Millisecond,
	})
	profiles := testProfiles(t, 1)

	s.mu.Lock()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := s.Resolve(ctx, profiles[0])
		errc <- err
	}()
	if err := <-errc; !errors.Is(err, context.DeadlineExceeded) {
		s.mu.Unlock()
		t.Fatalf("error = %v, want DeadlineExceeded", err)
	}
	s.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for s.Size() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned request never processed, size = %d", s.Size())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoneCallerNeverWaitsForWindow pins the idle flush: the batch
// window is an upper bound on waiting for an announced arrival, not a
// fixed wait, so sequential callers under an hour-long window are each
// answered at once. A count settled only after the reply would let a
// caller that resubmits at once stall on its own stale job.
func TestLoneCallerNeverWaitsForWindow(t *testing.T) {
	s := newTestServer(t, Config{
		Resolver:    incremental.Config{Scheme: core.JS, K: 10},
		BatchWindow: time.Hour,
		MaxBatch:    64,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, p := range testProfiles(t, 200) {
		res, err := s.Resolve(ctx, p)
		if err != nil {
			t.Fatalf("resolve %d under an hour-long window: %v", i, err)
		}
		if res.ID != entity.ID(i) {
			t.Fatalf("resolve %d got ID %d", i, res.ID)
		}
	}
}

// TestAnnouncedArrivalStillWaits: while a submitter has announced itself
// (counted in flight, not yet queued), the batcher still holds the batch
// open for it — and only for BatchWindow.
func TestAnnouncedArrivalStillWaits(t *testing.T) {
	const window = 20 * time.Millisecond
	s := newTestServer(t, Config{
		Resolver:    incremental.Config{Scheme: core.JS, K: 10},
		BatchWindow: window,
		MaxBatch:    64,
	})
	s.inflight.Add(1) // a submitter that announced itself but never enqueues
	defer s.inflight.Add(-1)
	start := time.Now()
	res, err := s.Resolve(context.Background(), testProfiles(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 0 {
		t.Fatalf("got ID %d, want 0", res.ID)
	}
	if waited := time.Since(start); waited < window {
		t.Fatalf("answered after %v: the batcher did not wait for the announced arrival (window %v)", waited, window)
	}
}

// TestCountersSettledBeforeReply: every batch counter is updated before
// the batch's replies are sent, so a caller reading the registry right
// after its answer sees its own request counted.
func TestCountersSettledBeforeReply(t *testing.T) {
	s := newTestServer(t, Config{
		Resolver: incremental.Config{Scheme: core.CBS},
		MaxBatch: 1,
	})
	profiles := testProfiles(t, 100)
	ctx := context.Background()
	batched := s.Metrics().Counter(CtrBatchedProfs)
	for i := 0; i < 3000; i++ {
		if _, err := s.Resolve(ctx, profiles[i%len(profiles)]); err != nil {
			t.Fatal(err)
		}
		if got := batched.Value(); got != int64(i+1) {
			t.Fatalf("after reply %d: %s = %d, want %d", i, CtrBatchedProfs, got, i+1)
		}
	}
}

// TestEndpoints covers the operational surface: health, readiness,
// metrics, expvar, and the error mappings of resolve and reload.
func TestEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Resolver: incremental.Config{Scheme: core.JS}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	post := func(path, body string) (int, string) {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(payload)
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 || body != "ready\n" {
		t.Fatalf("readyz = %d %q", code, body)
	}
	if code, body := post("/v1/resolve", `{"attributes":{"name":["jack miller"]}}`); code != 200 {
		t.Fatalf("resolve = %d %s", code, body)
	}
	// Every non-2xx answer carries the structured envelope with a stable
	// machine-readable code.
	errCode := func(body string) string {
		var e ErrorResponse
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error.Code == "" {
			t.Fatalf("non-2xx body is not an error envelope: %s", body)
		}
		if e.Error.Message == "" {
			t.Fatalf("envelope without message: %s", body)
		}
		return e.Error.Code
	}
	if code, body := post("/v1/resolve", "not json"); code != 422 || errCode(body) != CodeInvalidProfile {
		t.Fatalf("garbage resolve = %d %s", code, body)
	}
	if code, body := post("/v1/admin/reload", `{}`); code != 400 || errCode(body) != CodeInvalidRequest {
		t.Fatalf("reload without path = %d %s", code, body)
	}
	if code, body := post("/v1/admin/reload", `{"path":"/nonexistent/snap"}`); code != 404 || errCode(body) != CodeNotFound {
		t.Fatalf("reload missing file = %d %s", code, body)
	}
	// A snapshot with a different scheme is refused with a stable code.
	other, err := incremental.NewResolver(incremental.Config{Scheme: core.CBS})
	if err != nil {
		t.Fatal(err)
	}
	otherPath := filepath.Join(t.TempDir(), "other.snap")
	if err := store.SaveResolverFile(otherPath, other.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if code, body := post("/v1/admin/reload", fmt.Sprintf(`{"path":%q}`, otherPath)); code != 422 || errCode(body) != CodeSchemeMismatch {
		t.Fatalf("cross-scheme reload = %d %s", code, body)
	}

	// The admin status endpoint reports the effective (post-defaults)
	// config and breaker state.
	stCode, stBody := get("/v1/admin/status")
	if stCode != 200 {
		t.Fatalf("status = %d %s", stCode, stBody)
	}
	var st Status
	if err := json.Unmarshal([]byte(stBody), &st); err != nil {
		t.Fatalf("status not JSON: %v", err)
	}
	if st.Config.Scheme != "JS" || st.Config.Shards != 1 || st.Config.MaxBatch != 64 ||
		st.Config.MaxBlockSize != 1000 || st.Profiles != 1 || !st.Ready || st.Breaker != "closed" {
		t.Fatalf("status = %+v", st)
	}

	if code, body := get("/metrics"); code != 200 ||
		!bytes.Contains([]byte(body), []byte("server.accepted")) ||
		!bytes.Contains([]byte(body), []byte("http.resolve.requests")) {
		t.Fatalf("metrics = %d %q", code, body)
	}
	code, body := get("/debug/vars")
	if code != 200 {
		t.Fatalf("debug/vars = %d", code)
	}
	var snap struct {
		Counters map[string]int64
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("debug/vars not JSON: %v", err)
	}
	if snap.Counters["server.accepted"] != 1 {
		t.Fatalf("expvar accepted = %d, want 1", snap.Counters["server.accepted"])
	}

	s.Close()
	if code, _ := get("/readyz"); code != 503 {
		t.Fatalf("readyz after Close = %d, want 503", code)
	}
	if code, _ := post("/v1/resolve", `{"attributes":{"a":["b"]}}`); code != 503 {
		t.Fatalf("resolve after Close = %d, want 503", code)
	}
}

// TestSnapshotOfServingIndex: Server.Snapshot round-trips through the
// store and reloads into an identical index.
func TestSnapshotOfServingIndex(t *testing.T) {
	s := newTestServer(t, Config{Resolver: incremental.Config{Scheme: core.JS, K: 5}})
	profiles := testProfiles(t, 20)
	for _, p := range profiles {
		if _, err := s.Resolve(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "serving.snap")
	if err := store.SaveResolverFile(path, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	n, err := s.ReloadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 || s.Size() != 20 {
		t.Fatalf("reloaded size = %d / %d, want 20", n, s.Size())
	}
}

// TestReloadDurationGauge: a successful ReloadFile records its duration,
// load plus build, in server.reload_us, listed at /metrics and
// /debug/vars; a refused one leaves the last good reload's figure.
func TestReloadDurationGauge(t *testing.T) {
	s := newTestServer(t, Config{Resolver: incremental.Config{Scheme: core.JS, K: 5}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, p := range testProfiles(t, 20) {
		if _, err := s.Resolve(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Metrics().Gauge(GaugeReloadUs).Value(); got != 0 {
		t.Fatalf("reload_us before any reload = %d, want 0", got)
	}
	path := filepath.Join(t.TempDir(), "serving.snap")
	if err := store.SaveResolverFile(path, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReloadFile(path); err != nil {
		t.Fatal(err)
	}
	us := s.Metrics().Gauge(GaugeReloadUs).Value()
	if us <= 0 {
		t.Fatalf("reload_us after ReloadFile = %d, want > 0", us)
	}
	if _, err := s.ReloadFile(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Fatal("missing snapshot reloaded")
	}
	if got := s.Metrics().Gauge(GaugeReloadUs).Value(); got != us {
		t.Fatalf("refused reload moved reload_us from %d to %d", us, got)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte(GaugeReloadUs)) {
		t.Fatalf("/metrics lacks %s:\n%s", GaugeReloadUs, metrics)
	}
	resp, err = ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct{ Gauges map[string]int64 }
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil || vars.Gauges[GaugeReloadUs] != us {
		t.Fatalf("/debug/vars %s = %d (%v), want %d", GaugeReloadUs, vars.Gauges[GaugeReloadUs], err, us)
	}
}

// TestSnapshotEndpoint drives the persist→reload loop entirely over HTTP:
// /v1/admin/snapshot writes the serving index to disk, /v1/admin/reload
// swaps it back in.
func TestSnapshotEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Resolver: incremental.Config{Scheme: core.JS, K: 5}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (int, string) {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(payload)
	}

	for _, p := range testProfiles(t, 12) {
		if _, err := s.Resolve(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}

	if code, body := post("/v1/admin/snapshot", `{}`); code != 400 {
		t.Fatalf("snapshot without path = %d %s", code, body)
	}
	if code, body := post("/v1/admin/snapshot", `{"path":"/nonexistent-dir/x.snap"}`); code != 500 {
		t.Fatalf("snapshot to unwritable path = %d %s", code, body)
	}

	path := filepath.Join(t.TempDir(), "via-http.snap")
	code, body := post("/v1/admin/snapshot", fmt.Sprintf(`{"path":%q}`, path))
	if code != 200 {
		t.Fatalf("snapshot = %d %s", code, body)
	}
	var sr SnapshotResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatalf("snapshot response not JSON: %v", err)
	}
	if sr.Profiles != 12 || sr.Path != path {
		t.Fatalf("snapshot response = %+v, want 12 profiles at %s", sr, path)
	}

	code, body = post("/v1/admin/reload", fmt.Sprintf(`{"path":%q}`, path))
	if code != 200 {
		t.Fatalf("reload of own snapshot = %d %s", code, body)
	}
	if s.Size() != 12 {
		t.Fatalf("size after reload = %d, want 12", s.Size())
	}
	if got := s.Metrics().Snapshot().Counters[CtrSnapshots]; got != 1 {
		t.Fatalf("%s counter = %d, want 1", CtrSnapshots, got)
	}
}
