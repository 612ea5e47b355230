package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"metablocking/internal/budget"
	"metablocking/internal/core"
	"metablocking/internal/entity"
	"metablocking/internal/fault"
	"metablocking/internal/incremental"
)

// postStream POSTs a profile to /v1/resolve with the given Accept header
// and raw query string, returning the undecoded response.
func postStream(t *testing.T, ts *httptest.Server, p entity.Profile, accept, query string) *http.Response {
	t.Helper()
	raw, err := marshalProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	u := ts.URL + "/v1/resolve"
	if query != "" {
		u += "?" + query
	}
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readFrames decodes a streamed response body — either encoding — into
// the ordered frame sequence, closing the body.
func readFrames(t *testing.T, resp *http.Response) []streamFrame {
	t.Helper()
	defer resp.Body.Close()
	sse := strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream")
	var frames []streamFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !sse {
			var fr streamFrame
			if err := json.Unmarshal([]byte(line), &fr); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", line, err)
			}
			frames = append(frames, fr)
			continue
		}
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			t.Fatalf("unexpected SSE line %q", line)
		}
		var fr streamFrame
		var err error
		switch event {
		case "meta":
			fr.Meta = &streamMeta{}
			err = json.Unmarshal([]byte(data), fr.Meta)
		case "batch":
			err = json.Unmarshal([]byte(data), &fr.Batch)
		case "done":
			fr.Done = &streamDone{}
			err = json.Unmarshal([]byte(data), fr.Done)
		case "cursor":
			fr.Cursor = &streamCursor{}
			err = json.Unmarshal([]byte(data), fr.Cursor)
		default:
			t.Fatalf("unknown SSE event %q", event)
		}
		if err != nil {
			t.Fatalf("bad SSE data for %q: %v", event, err)
		}
		frames = append(frames, fr)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("stream carried no frames")
	}
	return frames
}

// splitFrames picks a frame sequence apart: the leading meta, the
// concatenated batches, and the terminal done-or-cursor frame.
func splitFrames(t *testing.T, frames []streamFrame) (streamMeta, []CandidateJSON, streamFrame) {
	t.Helper()
	if frames[0].Meta == nil {
		t.Fatalf("first frame is not meta: %+v", frames[0])
	}
	last := frames[len(frames)-1]
	if last.Done == nil && last.Cursor == nil {
		t.Fatalf("stream not terminated by done or cursor: %+v", last)
	}
	var cands []CandidateJSON
	for _, fr := range frames[1 : len(frames)-1] {
		if fr.Batch == nil {
			t.Fatalf("interior frame is not a batch: %+v", fr)
		}
		cands = append(cands, fr.Batch...)
	}
	return *frames[0].Meta, cands, last
}

// streamErrorCode decodes a non-2xx response's envelope code.
func streamErrorCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	return e.Error.Code
}

// TestStreamUnbudgetedEqualsSync is the first streaming oracle: an
// unbudgeted streamed resolve — over SSE and over NDJSON — delivers
// bit-identical candidates, in order, to the synchronous JSON path, at
// shard counts 1 and 4.
func TestStreamUnbudgetedEqualsSync(t *testing.T) {
	profiles := testProfiles(t, 80)
	for _, shards := range []int{1, 4} {
		for _, accept := range []string{"application/x-ndjson", "text/event-stream"} {
			cfg := Config{
				Resolver:    incremental.Config{Scheme: core.JS, K: 10},
				Shards:      shards,
				MaxBatch:    1, // sequential arrivals get deterministic IDs
				QueueDepth:  64,
				StreamBatch: 4,
			}
			syncSrv := newTestServer(t, cfg)
			streamSrv := newTestServer(t, cfg)
			tsSync := httptest.NewServer(syncSrv.Handler())
			tsStream := httptest.NewServer(streamSrv.Handler())

			for i, p := range profiles {
				resp := postStream(t, tsSync, p, "", "")
				var want ResolveResponse
				if err := json.NewDecoder(resp.Body).Decode(&want); err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()

				sresp := postStream(t, tsStream, p, accept, "")
				if sresp.StatusCode != http.StatusOK {
					t.Fatalf("shards=%d %s: arrival %d: status %d", shards, accept, i, sresp.StatusCode)
				}
				meta, got, last := splitFrames(t, readFrames(t, sresp))
				if meta.ID != want.ID || meta.Degraded || meta.Resumed {
					t.Fatalf("shards=%d %s: arrival %d: meta %+v, sync ID %d", shards, accept, i, meta, want.ID)
				}
				if last.Done == nil || last.Done.Reason != "" ||
					last.Done.Emitted != len(got) || last.Done.TotalEmitted != len(got) {
					t.Fatalf("shards=%d %s: arrival %d: bad terminal frame %+v", shards, accept, i, last)
				}
				if len(got) != len(want.Candidates) || (len(got) > 0 && !reflect.DeepEqual(got, want.Candidates)) {
					t.Fatalf("shards=%d %s: arrival %d: streamed candidates diverged\n got %v\nwant %v",
						shards, accept, i, got, want.Candidates)
				}
			}
			tsSync.Close()
			tsStream.Close()
		}
	}
}

// TestBudgetResumeToCompletionEqualsUnbudgeted is the second streaming
// oracle: a comparison-capped stream resumed through its cursors until
// completion reassembles exactly the unbudgeted candidate list, at shard
// counts 1 and 4 — and every exhausted leg delivered at least one batch.
func TestBudgetResumeToCompletionEqualsUnbudgeted(t *testing.T) {
	profiles := testProfiles(t, 60)
	for _, shards := range []int{1, 4} {
		cfg := Config{
			Resolver:    incremental.Config{Scheme: core.JS, K: 10},
			Shards:      shards,
			MaxBatch:    1,
			QueueDepth:  64,
			StreamBatch: 4,
		}
		s := newTestServer(t, cfg)
		ts := httptest.NewServer(s.Handler())
		serial, err := incremental.NewResolver(cfg.Resolver)
		if err != nil {
			t.Fatal(err)
		}

		resumes := 0
		for i, p := range profiles {
			want, err := serial.Resolve(p)
			if err != nil {
				t.Fatal(err)
			}
			var got []CandidateJSON
			query := "max_comparisons=3"
			for leg := 0; ; leg++ {
				resp := postStream(t, ts, p, "application/x-ndjson", query)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("shards=%d: arrival %d leg %d: status %d, code %q",
						shards, i, leg, resp.StatusCode, streamErrorCode(t, resp))
				}
				meta, cands, last := splitFrames(t, readFrames(t, resp))
				if meta.ID != int(want.ID) {
					t.Fatalf("shards=%d: arrival %d leg %d: meta ID %d, want %d", shards, i, leg, meta.ID, want.ID)
				}
				if (leg > 0) != meta.Resumed {
					t.Fatalf("shards=%d: arrival %d leg %d: resumed=%v", shards, i, leg, meta.Resumed)
				}
				got = append(got, cands...)
				if last.Cursor != nil {
					if len(cands) == 0 {
						t.Fatalf("shards=%d: arrival %d leg %d: exhausted with zero flushed batches", shards, i, leg)
					}
					if last.Cursor.Reason != budget.ReasonMaxComparisons || last.Cursor.TotalEmitted != len(got) {
						t.Fatalf("shards=%d: arrival %d leg %d: bad cursor frame %+v", shards, i, leg, last.Cursor)
					}
					query = "max_comparisons=3&cursor=" + url.QueryEscape(last.Cursor.Cursor)
					resumes++
					continue
				}
				if last.Done.TotalEmitted != len(got) {
					t.Fatalf("shards=%d: arrival %d leg %d: done %+v after %d candidates", shards, i, leg, last.Done, len(got))
				}
				break
			}
			if len(got) != len(want.Candidates) || (len(got) > 0 && !reflect.DeepEqual(got, candidateJSON(want.Candidates))) {
				t.Fatalf("shards=%d: arrival %d: resumed stream diverged\n got %v\nwant %v",
					shards, i, got, want.Candidates)
			}
		}
		if resumes == 0 {
			t.Fatal("no stream ever exhausted: oracle vacuous")
		}
		if got := s.Metrics().Counter(budget.CtrCursorResumes).Value(); got != int64(resumes) {
			t.Fatalf("cursor_resumes = %d, want %d", got, resumes)
		}
		if s.Metrics().Counter(budget.CtrExhausted).Value() != int64(resumes) {
			t.Fatalf("exhausted = %d, want %d", s.Metrics().Counter(budget.CtrExhausted).Value(), resumes)
		}
		ts.Close()
	}
}

// TestStreamDeadlineExhaustion pins the "never a bare 408" guarantee on
// the wall-clock axis: a stream whose budget is already spent when the
// first flush happens still gets that batch, then a deadline cursor —
// and resuming unbudgeted drains the exact remainder.
func TestStreamDeadlineExhaustion(t *testing.T) {
	inj := fault.New(1)
	inj.Arm(FaultStream, fault.Spec{Delay: 120 * time.Millisecond, Times: 1})
	cfg := Config{
		Resolver:    incremental.Config{Scheme: core.JS, K: 10},
		MaxBatch:    1,
		QueueDepth:  64,
		StreamBatch: 2,
	}
	s := newTestServer(t, cfg, WithFault(inj))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	serial, err := incremental.NewResolver(cfg.Resolver)
	if err != nil {
		t.Fatal(err)
	}

	// Seed co-blocking profiles so the target has well over one batch of
	// candidates.
	profiles := testProfiles(t, 13)
	for _, p := range profiles[:12] {
		if _, err := serial.Resolve(p); err != nil {
			t.Fatal(err)
		}
		resp := postStream(t, ts, p, "", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	want, err := serial.Resolve(profiles[12])
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Candidates) <= cfg.StreamBatch {
		t.Fatalf("target has only %d candidates; test needs > %d", len(want.Candidates), cfg.StreamBatch)
	}

	resp := postStream(t, ts, profiles[12], "application/x-ndjson", "budget_ms=30")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted stream status %d, want 200 (never a bare timeout)", resp.StatusCode)
	}
	_, got, last := splitFrames(t, readFrames(t, resp))
	if len(got) == 0 {
		t.Fatal("deadline exhaustion flushed no batch")
	}
	if last.Cursor == nil || last.Cursor.Reason != budget.ReasonDeadline {
		t.Fatalf("terminal frame %+v, want deadline cursor", last)
	}

	resp = postStream(t, ts, profiles[12], "application/x-ndjson",
		"cursor="+url.QueryEscape(last.Cursor.Cursor))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume status %d, code %q", resp.StatusCode, streamErrorCode(t, resp))
	}
	_, rest, rlast := splitFrames(t, readFrames(t, resp))
	if rlast.Done == nil {
		t.Fatalf("unbudgeted resume did not complete: %+v", rlast)
	}
	if all := append(got, rest...); !reflect.DeepEqual(all, candidateJSON(want.Candidates)) {
		t.Fatalf("exhausted+resumed diverged\n got %v\nwant %v", all, want.Candidates)
	}
}

// TestStreamCursorInvalid covers every refusal: tampering, a different
// profile, a superseded generation (reload), and garbage — all 410
// cursor_invalid, counted.
func TestStreamCursorInvalid(t *testing.T) {
	cfg := Config{
		Resolver:    incremental.Config{Scheme: core.JS, K: 10},
		MaxBatch:    1,
		QueueDepth:  64,
		StreamBatch: 2,
	}
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	profiles := testProfiles(t, 8)
	for _, p := range profiles[:7] {
		resp := postStream(t, ts, p, "", "")
		resp.Body.Close()
	}
	resp := postStream(t, ts, profiles[7], "application/x-ndjson", "max_comparisons=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	_, _, last := splitFrames(t, readFrames(t, resp))
	if last.Cursor == nil {
		t.Fatal("capped stream issued no cursor")
	}
	token := last.Cursor.Cursor

	expect410 := func(p entity.Profile, cursor, label string) {
		t.Helper()
		resp := postStream(t, ts, p, "application/x-ndjson", "cursor="+url.QueryEscape(cursor))
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("%s: status %d, want 410", label, resp.StatusCode)
		}
		if code := streamErrorCode(t, resp); code != CodeCursorInvalid {
			t.Fatalf("%s: code %q, want %q", label, code, CodeCursorInvalid)
		}
	}

	// Tampered payload: flip a byte while keeping the shape.
	tampered := []byte(token)
	tampered[3] ^= 0x01
	if string(tampered) == token {
		t.Fatal("tampering was a no-op")
	}
	expect410(profiles[7], string(tampered), "tampered token")
	expect410(profiles[7], "not-even-a-cursor", "garbage token")
	expect410(profiles[2], token, "wrong profile")

	// Valid resume still works before the reload...
	resp = postStream(t, ts, profiles[7], "application/x-ndjson", "cursor="+url.QueryEscape(token))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-reload resume status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// ...and is refused after it: the generation advanced.
	gen := s.Generation()
	if _, err := s.Reload(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != gen+1 {
		t.Fatalf("generation %d after reload, want %d", s.Generation(), gen+1)
	}
	expect410(profiles[7], token, "post-reload resume")

	if got := s.Metrics().Counter(budget.CtrCursorInvalid).Value(); got != 4 {
		t.Fatalf("cursor_invalid = %d, want 4", got)
	}
}

// TestStreamTierAdmission pins the SLA pools: a saturated tier sheds
// with 429 tier_busy while the other tier still admits, and an unknown
// tier is a 400.
func TestStreamTierAdmission(t *testing.T) {
	inj := fault.New(1)
	inj.Arm(FaultStream, fault.Spec{Delay: 300 * time.Millisecond, Times: 1})
	cfg := Config{
		Resolver:   incremental.Config{Scheme: core.JS, K: 10},
		MaxBatch:   1,
		QueueDepth: 64,
		Tiers: []budget.Tier{
			{Name: budget.TierInteractive, Slots: 1},
			{Name: budget.TierBatch, Slots: 1},
		},
	}
	s := newTestServer(t, cfg, WithFault(inj))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	profiles := testProfiles(t, 12)

	// Seed co-blocking profiles so the pinned stream has candidates to
	// flush — the fault site only fires on a flush.
	for _, p := range profiles[:8] {
		resp := postStream(t, ts, p, "", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Pin one interactive stream mid-flush via the stream fault site.
	// (Raw reads only: t.Fatal is not legal off the test goroutine.)
	pinned := make(chan int, 1)
	go func() {
		raw, err := marshalProfile(profiles[8])
		if err != nil {
			pinned <- -1
			return
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/resolve?tier=interactive", "application/json", bytes.NewReader(raw))
		if err != nil {
			pinned <- -1
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		pinned <- strings.Count(string(body), `"batch"`)
	}()
	time.Sleep(80 * time.Millisecond)

	resp := postStream(t, ts, profiles[9], "application/x-ndjson", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated tier status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 tier_busy missing Retry-After")
	}
	if code := streamErrorCode(t, resp); code != CodeTierBusy {
		t.Fatalf("saturated tier code %q, want %q", code, CodeTierBusy)
	}

	resp = postStream(t, ts, profiles[10], "application/x-ndjson", "tier=batch")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch tier status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postStream(t, ts, profiles[11], "application/x-ndjson", "tier=bulk")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown tier status %d, want 400", resp.StatusCode)
	}
	if code := streamErrorCode(t, resp); code != CodeInvalidRequest {
		t.Fatalf("unknown tier code %q", code)
	}
	if flushed := <-pinned; flushed <= 0 {
		t.Fatalf("pinned stream flushed %d batches: saturation was never exercised", flushed)
	}

	if s.Metrics().Counter(budget.CtrTierShed).Value() != 1 {
		t.Fatalf("tier_shed = %d, want 1", s.Metrics().Counter(budget.CtrTierShed).Value())
	}
}

// TestStreamDegradedZeroBudget pins the breaker's streaming behavior:
// while the circuit is open a stream is the zero-budget tier — one
// read-only batch, reason degraded, no cursor, even when the request
// asked for a budget that would otherwise exhaust.
func TestStreamDegradedZeroBudget(t *testing.T) {
	inj := fault.New(1)
	inj.Arm(FaultResolve, fault.Spec{Err: fault.ErrInjected, After: 10})
	cfg := Config{
		Resolver:         incremental.Config{Scheme: core.JS, K: 10},
		MaxBatch:         1,
		QueueDepth:       64,
		StreamBatch:      2,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
	}
	s := newTestServer(t, cfg, WithFault(inj))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	profiles := testProfiles(t, 12)
	for _, p := range profiles[:10] {
		resp := postStream(t, ts, p, "", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	// The 11th resolve hits the armed fault and opens the breaker.
	resp := postStream(t, ts, profiles[10], "", "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("breaker-opening resolve status %d, want 500", resp.StatusCode)
	}
	resp.Body.Close()

	// max_comparisons=1 would exhaust with a cursor when healthy; the
	// degraded path overrides it to the cursor-less single batch.
	resp = postStream(t, ts, profiles[11], "application/x-ndjson", "max_comparisons=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded stream status %d", resp.StatusCode)
	}
	meta, got, last := splitFrames(t, readFrames(t, resp))
	if !meta.Degraded || meta.ID != -1 {
		t.Fatalf("degraded stream meta %+v", meta)
	}
	if len(got) == 0 || len(got) > cfg.StreamBatch {
		t.Fatalf("degraded stream emitted %d candidates, want 1..%d", len(got), cfg.StreamBatch)
	}
	if last.Cursor != nil {
		t.Fatal("degraded stream issued a cursor")
	}
	if last.Done.Reason != budget.ReasonDegraded {
		t.Fatalf("degraded stream reason %q", last.Done.Reason)
	}
	if s.Metrics().Counter(budget.CtrPartialResults).Value() == 0 {
		t.Fatal("degraded partial result not counted")
	}
}

// TestTimeoutCarriesRetryAfter pins the envelope fix: 408s (and 503s)
// advertise retry_after_ms and the Retry-After header exactly like 429s,
// so clients back off uniformly.
func TestTimeoutCarriesRetryAfter(t *testing.T) {
	inj := fault.New(1)
	inj.Arm(FaultResolve, fault.Spec{Delay: 300 * time.Millisecond, Times: 1})
	cfg := Config{
		Resolver:       incremental.Config{Scheme: core.CBS},
		MaxBatch:       1,
		QueueDepth:     64,
		RetryAfter:     2 * time.Second,
		RequestTimeout: 50 * time.Millisecond,
	}
	s := newTestServer(t, cfg, WithFault(inj))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	profiles := testProfiles(t, 2)

	resp := postStream(t, ts, profiles[0], "", "")
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e.Error.Code != CodeTimeout || e.Error.RetryAfterMs != 2000 {
		t.Fatalf("408 envelope %+v, want timeout with retry_after_ms 2000", e.Error)
	}

	// Draining 503s carry it too.
	s.Close()
	resp = postStream(t, ts, profiles[1], "", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d, want 503", resp.StatusCode)
	}
	e = ErrorResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e.Error.Code != CodeDraining || e.Error.RetryAfterMs != 2000 {
		t.Fatalf("503 envelope %+v, want draining with retry_after_ms 2000", e.Error)
	}
}

// TestDiskStatusShardGauges hits GET /v1/admin/status over HTTP against
// a disk-mode sharded server: every shard reports its disk-tier gauges
// and the committed checkpoint id, and the checkpoint advanced the
// cursor generation.
func TestDiskStatusShardGauges(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "index")
	cfg := diskConfig(dir, 4)
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	profiles := testProfiles(t, 60)
	for i, p := range profiles {
		resp := postStream(t, ts, p, "", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// An explicit checkpoint guarantees a committed id regardless of the
	// memtable budget's automatic ones.
	body, _ := json.Marshal(SnapshotRequest{})
	resp, err := ts.Client().Post(ts.URL+"/v1/admin/snapshot", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/admin/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if st.Checkpoint == 0 {
		t.Fatal("status reports no committed checkpoint")
	}
	if st.Generation == 0 {
		t.Fatal("checkpoint did not advance the cursor generation")
	}
	if len(st.Shards) != 4 {
		t.Fatalf("status reports %d shards, want 4", len(st.Shards))
	}
	total := 0
	for _, sh := range st.Shards {
		if sh.Disk == nil {
			t.Fatalf("shard %d has no disk gauges: %+v", sh.Shard, sh)
		}
		if sh.Disk.Checkpoint != st.Checkpoint {
			t.Fatalf("shard %d checkpoint %d, server-wide %d", sh.Shard, sh.Disk.Checkpoint, st.Checkpoint)
		}
		total += sh.Profiles
	}
	if total != len(profiles) {
		t.Fatalf("per-shard profiles sum to %d, want %d", total, len(profiles))
	}
	if len(st.Tiers) != 2 {
		t.Fatalf("status reports %d tiers, want 2: %+v", len(st.Tiers), st.Tiers)
	}
	if st.Config.StreamBatch != budget.DefaultBatch {
		t.Fatalf("stream_batch %d, want default %d", st.Config.StreamBatch, budget.DefaultBatch)
	}
}
