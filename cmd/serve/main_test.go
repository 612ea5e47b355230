package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"metablocking/internal/core"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
	"metablocking/internal/store"
)

// TestServeLifecycle boots the service on a random port, resolves two
// profiles over HTTP, checks the operational endpoints, then cancels the
// context and expects a clean drain.
func TestServeLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	var logBuf bytes.Buffer
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, options{
			addr:        "127.0.0.1:0",
			scheme:      "js",
			k:           10,
			maxBlock:    1000,
			batchWindow: time.Millisecond,
			batchMax:    16,
			queueDepth:  64,
			retryAfter:  time.Second,
			metrics:     true,
		}, &logBuf, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != 200 {
		t.Fatalf("healthz = %d %q", code, body)
	}
	post := func(payload string) string {
		t.Helper()
		resp, err := http.Post(base+"/v1/resolve", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("resolve = %d %s", resp.StatusCode, body)
		}
		return string(body)
	}
	first := post(`{"attributes":{"name":["jack miller"],"job":["car seller"]}}`)
	if !strings.Contains(first, `"id":0`) {
		t.Fatalf("first resolve = %s", first)
	}
	second := post(`{"attributes":{"fullname":["jack q miller"],"work":["car vendor"]}}`)
	if !strings.Contains(second, `"candidates":[{"id":0,`) {
		t.Fatalf("second resolve found no candidate: %s", second)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "server.accepted") {
		t.Fatalf("metrics = %d %q", code, body)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server never drained")
	}
	log := logBuf.String()
	for _, want := range []string{"listening on", "draining", "drained, 2 profiles resolved", "server.accepted"} {
		if !strings.Contains(log, want) {
			t.Fatalf("log missing %q:\n%s", want, log)
		}
	}
}

func TestParseSchemeServe(t *testing.T) {
	for _, s := range []string{"arcs", "cbs", "ecbs", "js"} {
		if _, err := parseScheme(s); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
	if _, err := parseScheme("ejs"); !errors.Is(err, core.ErrUnsupportedScheme) {
		t.Errorf("ejs error = %v, want the shared sentinel", err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run(context.Background(), options{scheme: "nope"}, io.Discard, nil); err == nil {
		t.Fatal("bad scheme accepted")
	}
	if err := run(context.Background(), options{scheme: "js", addr: "256.0.0.1:bad"}, io.Discard, nil); err == nil {
		t.Fatal("bad address accepted")
	}
	if err := run(context.Background(), options{
		scheme: "js", addr: "127.0.0.1:0", snapshot: "/nonexistent/snap",
	}, io.Discard, nil); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

// TestServeFaultFlag boots the service with an armed resolve fault and
// checks the flag wiring end to end: the armed request fails with 500,
// the next succeeds, and bad specs are rejected at startup.
func TestServeFaultFlag(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, options{
			addr:        "127.0.0.1:0",
			scheme:      "js",
			k:           10,
			maxBlock:    1000,
			batchWindow: time.Millisecond,
			batchMax:    1,
			queueDepth:  64,
			retryAfter:  time.Second,
			faults:      faultFlags{"server.resolve:error,times=1"},
			faultSeed:   7,
		}, io.Discard, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	post := func() int {
		t.Helper()
		resp, err := http.Post(base+"/v1/resolve", "application/json",
			strings.NewReader(`{"attributes":{"name":["jack miller"]}}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(); code != 500 {
		t.Fatalf("armed resolve = %d, want 500", code)
	}
	if code := post(); code != 200 {
		t.Fatalf("resolve after fault budget = %d, want 200", code)
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("drain returned %v", err)
	}

	if err := run(context.Background(), options{
		scheme: "js", addr: "127.0.0.1:0", faults: faultFlags{"server.resolve:bogus"},
	}, io.Discard, nil); err == nil {
		t.Fatal("bad fault spec accepted")
	}
}

// TestServeSharded boots the service with -shards 4 and checks the
// sharded wiring end to end: resolves work identically, the admin status
// endpoint reports the partition layout, and a malformed request gets the
// structured error envelope.
func TestServeSharded(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, options{
			addr:        "127.0.0.1:0",
			scheme:      "js",
			k:           10,
			maxBlock:    1000,
			shards:      4,
			shardQueue:  2,
			batchWindow: time.Millisecond,
			batchMax:    16,
			queueDepth:  64,
			retryAfter:  time.Second,
		}, io.Discard, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	post := func(payload string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/resolve", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := post(`{"attributes":{"name":["jack miller"],"job":["car seller"]}}`); code != 200 || !strings.Contains(body, `"id":0`) {
		t.Fatalf("first resolve = %d %s", code, body)
	}
	if code, body := post(`{"attributes":{"fullname":["jack q miller"],"work":["car vendor"]}}`); code != 200 || !strings.Contains(body, `"candidates":[{"id":0,`) {
		t.Fatalf("second resolve = %d %s", code, body)
	}
	if code, body := post(`not json`); code != 422 || !strings.Contains(body, `"code":"invalid_profile"`) {
		t.Fatalf("garbage resolve = %d %s, want 422 with envelope", code, body)
	}

	resp, err := http.Get(base + "/v1/admin/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	status, _ := io.ReadAll(resp.Body)
	for _, want := range []string{`"shards":4`, `"shard_queue_depth":2`, `"profiles":2`} {
		if !strings.Contains(string(status), want) {
			t.Fatalf("status missing %s: %s", want, status)
		}
	}

	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("drain returned %v", err)
	}
}

// TestServeLogsSnapshotLoad: -snapshot logs the profile count in
// parentheses, which scripts/chaos_smoke.sh greps for, and after it the
// load time that the server.reload_us gauge recorded.
func TestServeLogsSnapshotLoad(t *testing.T) {
	r, err := incremental.NewResolver(incremental.Config{Scheme: core.JS, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	var a, b entity.Profile
	a.Add("name", "jack miller")
	b.Add("name", "jack q miller")
	r.AddBatch([]entity.Profile{a, b})
	path := filepath.Join(t.TempDir(), "two.snap")
	if err := store.SaveResolverFile(path, r.Snapshot()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	var logBuf bytes.Buffer
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, options{
			addr:        "127.0.0.1:0",
			scheme:      "js",
			k:           10,
			maxBlock:    1000,
			batchWindow: time.Millisecond,
			batchMax:    16,
			queueDepth:  64,
			retryAfter:  time.Second,
			snapshot:    path,
		}, &logBuf, ready)
	}()
	select {
	case <-ready:
	case err := <-errc:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("drain returned %v", err)
	}
	if line := regexp.MustCompile(`loaded snapshot .* \(2 profiles\) in \d+ ms`); !line.MatchString(logBuf.String()) {
		t.Fatalf("log lacks the load line:\n%s", logBuf.String())
	}
}
