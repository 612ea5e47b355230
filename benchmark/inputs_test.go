package main

import (
	"bytes"
	"testing"
)

// smokeWorkload returns the smoke-sized variant of a workload.
func smokeWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(workloads(true), name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestServeInputsAreAFunctionOfTheSeed(t *testing.T) {
	w := smokeWorkload(t, "serve_stream_reads")
	a, err := buildServeInputs(w, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildServeInputs(w, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("the same seed hashed to %s and %s", a.digest, b.digest)
	}
	if len(a.bodies) != w.warm+w.ops+w.afterKill || len(a.snapshot.Profiles) != w.preload {
		t.Errorf("got %d bodies and %d preloaded profiles, want %d and %d",
			len(a.bodies), len(a.snapshot.Profiles), w.warm+w.ops+w.afterKill, w.preload)
	}
	for i := range a.bodies {
		if !bytes.Equal(a.bodies[i], b.bodies[i]) {
			t.Fatalf("request %d differs between two generations of one seed", i)
		}
	}
	if a.snapshot.Config.K != w.k {
		t.Errorf("preload artifact stamped with k=%d, the workload serves k=%d", a.snapshot.Config.K, w.k)
	}
	c, err := buildServeInputs(w, 8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if c.digest == a.digest {
		t.Error("seeds 7 and 8 generated the same inputs")
	}
	other := smokeWorkload(t, "serve_mem_direct")
	d, err := buildServeInputs(other, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if d.digest == a.digest {
		t.Error("two workloads share one request stream")
	}
}

func TestBatchInputsAreAFunctionOfTheSeed(t *testing.T) {
	w := smokeWorkload(t, "batch_graphfree")
	a, err := buildBatchInputs(w, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildBatchInputs(w, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildBatchInputs(w, 4, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("the same seed hashed to %s and %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Error("seeds 3 and 4 generated the same collection")
	}
}

func TestPinMismatchIsRefused(t *testing.T) {
	e := &env{seed: 1, pins: map[string]pin{"w": {Inputs: "abc"}}}
	if err := e.checkPin("w", "abc"); err != nil {
		t.Errorf("matching digest refused: %v", err)
	}
	if err := e.checkPin("w", "abd"); err == nil {
		t.Error("a digest that differs from its pin was accepted")
	}
	if err := e.checkPin("unpinned", "anything"); err != nil {
		t.Errorf("an unpinned workload was refused: %v", err)
	}
}
