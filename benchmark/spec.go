package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json, the single statement of which metrics
// exist, in which unit, which way is better and how far each may worsen.
// The harness emits exactly the declared names and -compare applies
// exactly the declared bounds.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`

	order map[string]int
}

// root is the checkout the benchmark runs in: the nearest directory at or
// above the working directory that holds both go.mod and BENCHMARK.json.
// Everything the benchmark writes goes under buildDir inside it.
var (
	root     = findRoot()
	buildDir = filepath.Join(root, ".bench_build")
)

func findRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if exists(filepath.Join(d, "go.mod")) && exists(filepath.Join(d, "BENCHMARK.json")) {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("run from inside a checkout: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	s.order = map[string]int{}
	for _, defs := range [][]metricDef{s.EndToEnd, s.PerLayer} {
		for _, d := range defs {
			s.order[d.Name] = len(s.order)
		}
	}
	return &s, nil
}

// result reports every metric of defs: the driver expects all of them on
// every workload. A layer a workload does not pass through spent no time
// and counted nothing there, so a per-layer metric without a value is 0.
func (s *benchSpec) result(values map[string]float64, defs []metricDef, attempted, failed int) result {
	r := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return r
}

// pin is what is fixed for one workload at one seed: the SHA-256 of its
// generated inputs and, for a batch workload, the answer cmd/metablock
// gave on them at the commit that recorded the pin. The first holds the
// inputs still between a parent and its child commit; the second makes a
// later change to what the pipeline retains count as failed instead of
// passing as a speed-up.
type pin struct {
	Inputs string       `json:"inputs_sha256"`
	Answer *batchAnswer `json:"answer,omitempty"`
}

// batchAnswer is a pipeline's output as a user sees it: how many pairs it
// wrote, an order-independent hash of them, and PC, PQ and RR as printed.
type batchAnswer struct {
	Pairs     int    `json:"pairs"`
	PairsHash string `json:"pairs_hash"`
	PC        string `json:"pc"`
	PQ        string `json:"pq"`
	RR        string `json:"rr"`
}

// pins maps seed → workload → pin.
type pins map[string]map[string]pin

func pinsPath() string { return filepath.Join(root, "benchmark", "pins.json") }

func loadPins() (pins, error) {
	p := pins{}
	b, err := os.ReadFile(pinsPath())
	if errors.Is(err, os.ErrNotExist) {
		return p, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

func savePins(p pins) error {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinsPath(), append(b, '\n'), 0o644)
}
