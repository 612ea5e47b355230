package shard

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/fault"
	"metablocking/internal/incremental"
	"metablocking/internal/par"
)

// settledGoroutines waits for goroutines other tests left exiting, then
// returns the count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestOneShardGroupRunsInline: a one-shard in-memory group starts no
// goroutine — not in New, not in FromSnapshot, not in Close (twice) —
// while a two-shard group starts one actor per shard.
func TestOneShardGroupRunsInline(t *testing.T) {
	profiles := testProfiles(t, 20)
	rcfg := incremental.Config{Scheme: core.JS, K: 3}
	base := settledGoroutines()
	g, err := New(Config{Resolver: rcfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles {
		if _, err := g.Resolve(p); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("New(Shards: 1) and 20 resolves: %d goroutines, want at most %d", n, base)
	}
	g2, err := FromSnapshot(g.Snapshot(), Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("FromSnapshot(Shards: 1): %d goroutines, want at most %d", n, base)
	}
	for _, gr := range []*Group{g, g, g2, g2} {
		if err := gr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("after Close: %d goroutines, want at most %d", n, base)
	}

	// The measure is sensitive: actors are goroutines.
	g4, err := New(Config{Resolver: rcfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n < base+2 {
		t.Fatalf("New(Shards: 2): %d goroutines, want at least %d", n, base+2)
	}
	g4.Close()
}

// TestOneShardFaultsAndPanics: on an inline shard, gather and commit
// faults and injected panics fail only their own resolve, consume no ID,
// and mark the shard down after DownAfter consecutive failures — the
// same contract the actor gives.
func TestOneShardFaultsAndPanics(t *testing.T) {
	profiles := testProfiles(t, 4)
	inj := fault.New(1)
	g, err := New(Config{Resolver: incremental.Config{Scheme: core.JS, K: 3}, Shards: 1, DownAfter: 3, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	inj.Arm(GatherSite(0), fault.Spec{Times: 1})
	if _, err := g.Resolve(profiles[0]); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("gather fault: err = %v, want ErrInjected", err)
	}
	inj.Arm(CommitSite(0), fault.Spec{Panic: true, Times: 1})
	var pe *par.PanicError
	if _, err := g.Resolve(profiles[0]); !errors.As(err, &pe) {
		t.Fatalf("commit panic: err = %v, want *par.PanicError", err)
	}
	if g.Size() != 0 {
		t.Fatalf("failed resolves consumed IDs: size %d", g.Size())
	}
	// Two consecutive failures, one short of DownAfter; a success resets
	// the count.
	if res, err := g.Resolve(profiles[0]); err != nil || res.ID != 0 {
		t.Fatalf("resolve after faults: id %d err %v, want 0 <nil>", res.ID, err)
	}
	if st := g.Stats()[0]; st.Down || st.ConsecutiveFailures != 0 {
		t.Fatalf("after a success: %+v, want up with 0 failures", st)
	}
	inj.Arm(GatherSite(0), fault.Spec{Panic: true, Times: 1})
	if _, err := g.Resolve(profiles[1]); !errors.As(err, &pe) {
		t.Fatalf("gather panic: err = %v, want *par.PanicError", err)
	}
	if res, err := g.Resolve(profiles[1]); err != nil || res.ID != 1 {
		t.Fatalf("resolve after a gather panic: id %d err %v, want 1 <nil>", res.ID, err)
	}

	// Failing commits count like failing gathers, although the gather
	// before each one succeeds: DownAfter of them mark the shard down.
	inj.Arm(CommitSite(0), fault.Spec{Times: 3})
	for i := 0; i < 3; i++ {
		if _, err := g.Resolve(profiles[2]); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("commit fault %d: err = %v, want ErrInjected", i, err)
		}
	}
	if st := g.Stats()[0]; !st.Down || st.ConsecutiveFailures != 3 {
		t.Fatalf("after DownAfter failures: %+v, want down with 3 failures", st)
	}
	if _, err := g.Resolve(profiles[2]); !errors.Is(err, ErrShardDown) {
		t.Fatalf("resolve on the down shard: err = %v, want ErrShardDown", err)
	}
	if g.Size() != 2 {
		t.Fatalf("size %d, want 2", g.Size())
	}
	// A read still answers, from no live shard.
	if cands, err := g.Peek(profiles[0]); err != nil || len(cands) != 0 {
		t.Fatalf("peek with the only shard down: %v, %v", cands, err)
	}
}

// TestOneShardLoadIsFinalSize: FromSnapshot builds an in-memory one-shard
// group in no more bytes than the serial incremental.FromSnapshot takes
// on the same snapshot — it shares the key lists and sizes every slice
// once — and the loaded group answers what the serial one answers.
func TestOneShardLoadIsFinalSize(t *testing.T) {
	// The shape of the serving benchmark's preload: two sources, terse and
	// verbose, over a Zipf vocabulary.
	const n = 4000
	profiles := datagen.Generate(datagen.Config{
		Name: "d2-like", Seed: 1, Size1: n / 2, Size2: n / 2, Duplicates: n * 2 / 5,
		Vocabulary: n * 3 / 2, ZipfS: 1.1, CoreTokens: 6,
		Source1: datagen.SourceConfig{AttributeNames: 4, AttributesPerProfile: 4,
			TokensPerProfile: 7, NoiseRate: 0.13, FillerRate: 0.70},
		Source2: datagen.SourceConfig{AttributeNames: 7, AttributesPerProfile: 7,
			TokensPerProfile: 32, NoiseRate: 0.13, FillerRate: 0.55},
	}).Collection.Profiles
	rcfg := incremental.Config{Scheme: core.JS, K: 5}
	build, err := incremental.NewResolver(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	split := len(profiles) - 50
	for _, p := range profiles[:split] {
		build.Add(p)
	}
	snap := build.Snapshot()

	allocated := func(load func()) uint64 {
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			load()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	var serial *incremental.Resolver
	var g *Group
	serialBytes := allocated(func() { serial, err = incremental.FromSnapshot(snap) })
	if err != nil {
		t.Fatal(err)
	}
	groupBytes := allocated(func() { g, err = FromSnapshot(snap, Config{Shards: 1}) })
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	t.Logf("%d profiles: incremental.FromSnapshot %d B, one-shard FromSnapshot %d B", split, serialBytes, groupBytes)
	if groupBytes > serialBytes {
		t.Fatalf("one-shard load allocated %d B, the serial load %d B", groupBytes, serialBytes)
	}
	for i, p := range profiles[split:] {
		want, _ := serial.Resolve(p)
		got, err := g.Resolve(p)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("arrival %d after load diverged: %+v (%v), want %+v", i, got, err, want)
		}
	}
	if !reflect.DeepEqual(g.Snapshot(), serial.Snapshot()) {
		t.Fatal("snapshot after load diverged")
	}
}
