package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestGateLogic(t *testing.T) {
	base := map[string]Bench{
		"a":    {NsPerOp: 1000, AllocsPerOp: 100},
		"wide": {AllocsPerOp: 10, AllocTolerance: 0.5},
		"zero": {AllocsPerOp: 0},
	}
	// run builds a current run with the given allocs/op for a, wide and
	// zero; ns/op is always 5x the baseline's, which is never gated.
	run := func(a, wide, zero int64) map[string]Bench {
		return map[string]Bench{
			"a":    {NsPerOp: 5000, AllocsPerOp: a},
			"wide": {NsPerOp: 5000, AllocsPerOp: wide},
			"zero": {NsPerOp: 5000, AllocsPerOp: zero},
		}
	}
	for _, tc := range []struct {
		name string
		cur  map[string]Bench
		want bool
	}{
		{"within default tolerance", run(105, 10, 0), true},
		{"past default tolerance", run(111, 10, 0), false},
		{"within per-row override", run(100, 14, 0), true},
		{"past per-row override", run(100, 16, 0), false},
		{"missing row", map[string]Bench{"a": {AllocsPerOp: 100}, "wide": {AllocsPerOp: 10}}, false},
		{"zero baseline allocates", run(100, 10, 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := gate(base, tc.cur); got != tc.want {
				t.Errorf("gate = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	want := File{Schema: 1, PR: 6, Go: "go-test", Benchmarks: map[string]Bench{
		"x": {NsPerOp: 1.5, BytesPerOp: 2, AllocsPerOp: 3, ProfilesPerBatch: 6.5, AllocTolerance: 0.1},
	}}
	writeJSON(path, want)
	got := readJSON(path)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestEmitGateLive runs the real headline benchmarks once (testing.Benchmark
// self-scales, a few seconds total) and gates the result against itself —
// the always-green self-consistency case that also smoke-tests the bench
// harness end to end.
func TestEmitGateLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live benchmarks take a few seconds")
	}
	cur := runAll()
	for name, b := range cur {
		if b.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %v, want > 0", name, b.NsPerOp)
		}
	}
	if !gate(cur, cur) {
		t.Error("a run gated against itself must pass")
	}
}
