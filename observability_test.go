package metablocking

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSentinelErrors pins the typed errors of the public API: callers must
// be able to branch on them with errors.Is.
func TestSentinelErrors(t *testing.T) {
	if _, err := (Pipeline{}).Run(nil); !errors.Is(err, ErrEmptyCollection) {
		t.Errorf("nil collection: got %v, want ErrEmptyCollection", err)
	}
	if _, err := (Pipeline{}).Run(NewDirty(nil)); !errors.Is(err, ErrEmptyCollection) {
		t.Errorf("empty collection: got %v, want ErrEmptyCollection", err)
	}
	ds := GenerateDataset(D1D, 0.05)
	if _, err := (Pipeline{FilterRatio: 1.5}).Run(ds.Collection); !errors.Is(err, ErrInvalidFilterRatio) {
		t.Errorf("FilterRatio 1.5: got %v, want ErrInvalidFilterRatio", err)
	}
	if _, err := (Pipeline{FilterRatio: -0.1}).Run(ds.Collection); !errors.Is(err, ErrInvalidFilterRatio) {
		t.Errorf("FilterRatio -0.1: got %v, want ErrInvalidFilterRatio", err)
	}
	for _, p := range []Pipeline{{FilterRatio: math.NaN()}, {FilterRatio: math.NaN(), GraphFree: true}} {
		if _, err := p.Run(ds.Collection); !errors.Is(err, ErrInvalidFilterRatio) {
			t.Errorf("FilterRatio NaN, GraphFree %v: got %v, want ErrInvalidFilterRatio", p.GraphFree, err)
		}
	}
	if _, err := (Pipeline{GraphFree: true}).Run(ds.Collection); !errors.Is(err, ErrGraphFreeNeedsFilter) {
		t.Errorf("GraphFree without ratio: got %v, want ErrGraphFreeNeedsFilter", err)
	}
	if _, err := NewIncrementalResolver(IncrementalConfig{Scheme: EJS}); !errors.Is(err, ErrUnsupportedScheme) {
		t.Errorf("incremental EJS: got %v, want ErrUnsupportedScheme", err)
	}
}

// TestRunContextImmediateCancel verifies an already-canceled context aborts
// the run before any stage completes.
func TestRunContextImmediateCancel(t *testing.T) {
	ds := GenerateDataset(D2C, 0.2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Pipeline{FilterRatio: 0.8, Scheme: JS, Algorithm: ReciprocalWNP, Workers: -1}.
		RunContext(ctx, ds.Collection)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("got non-nil result %v alongside cancellation", res)
	}
}

// TestRunContextCancelMidPrune cancels the run from the first prune-stage
// progress callback and verifies it returns promptly with context.Canceled,
// discards partial output, and leaks no goroutines — for graph-based
// pruning and for the graph-free workflow's Comparison Propagation.
func TestRunContextCancelMidPrune(t *testing.T) {
	ds := GenerateDataset(D2C, 0.5)
	for name, p := range map[string]Pipeline{
		"graph":             {FilterRatio: 0.8, Scheme: ECBS, Algorithm: ReciprocalWNP, Workers: -1},
		"graph-free":        {FilterRatio: 0.8, GraphFree: true, Workers: -1},
		"graph-free-serial": {FilterRatio: 0.8, GraphFree: true},
	} {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var pruneSeen atomic.Bool
			start := time.Now()
			res, err := p.RunContext(ctx, ds.Collection, WithProgress(func(stage string, done, total int64) {
				if stage == "prune" && pruneSeen.CompareAndSwap(false, true) {
					cancel()
				}
			}))
			elapsed := time.Since(start)
			if !pruneSeen.Load() {
				t.Fatal("prune stage reported no progress; cannot cancel mid-prune")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("got err %v, want context.Canceled", err)
			}
			if res != nil {
				t.Fatalf("got non-nil result alongside cancellation")
			}
			// Bounded return: cancellation is polled once per stride, so the abort
			// should be far quicker than finishing the prune would be.
			if elapsed > 30*time.Second {
				t.Fatalf("cancellation took %v", elapsed)
			}
			// No goroutine leaks: every worker drains via wg.Wait, so the count
			// settles back to (about) where it started.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if runtime.NumGoroutine() <= before+2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines did not settle: before=%d now=%d", before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// sortedPairs returns a canonically ordered copy for multiset comparison:
// the serial node-centric traversals emit pairs in a different (and for
// some algorithms unspecified) order than the canonical parallel reduction.
func sortedPairs(ps []Pair) []Pair {
	out := append([]Pair(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// TestMetricsDeterminism verifies the acceptance invariant of the
// observability layer: retained pairs AND counter values are identical
// with observability on or off, serial or parallel.
func TestMetricsDeterminism(t *testing.T) {
	ds := GenerateDataset(D2C, 0.15)
	for _, alg := range []Algorithm{CEP, WEP, CNP, RedefinedCNP, ReciprocalWNP} {
		var refPairs []Pair
		var refCounters map[string]int64
		for _, workers := range []int{0, 3} {
			for _, observed := range []bool{false, true} {
				p := Pipeline{FilterRatio: 0.8, Scheme: JS, Algorithm: alg, Workers: workers}
				var res *Result
				var err error
				if observed {
					res, err = p.RunContext(context.Background(), ds.Collection, WithMetrics(NewMetrics()))
				} else {
					res, err = p.Run(ds.Collection)
				}
				if err != nil {
					t.Fatalf("alg %v workers %d observed %v: %v", alg, workers, observed, err)
				}
				if refPairs == nil {
					refPairs = sortedPairs(res.Pairs)
				} else if !reflect.DeepEqual(sortedPairs(res.Pairs), refPairs) {
					t.Errorf("alg %v workers %d observed %v: pairs differ from reference", alg, workers, observed)
				}
				if !observed {
					if res.Metrics.Counters != nil {
						t.Errorf("alg %v: unobserved run has a metrics snapshot", alg)
					}
					continue
				}
				if got := res.Metrics.Counter("filter.comparisons"); got != res.InputComparisons {
					t.Errorf("alg %v workers %d: filter.comparisons %d != InputComparisons %d",
						alg, workers, got, res.InputComparisons)
				}
				if got := res.Metrics.Counter("prune.pairs"); got != int64(len(res.Pairs)) {
					t.Errorf("alg %v workers %d: prune.pairs %d != len(Pairs) %d",
						alg, workers, got, len(res.Pairs))
				}
				if refCounters == nil {
					refCounters = res.Metrics.Counters
				} else if !reflect.DeepEqual(res.Metrics.Counters, refCounters) {
					t.Errorf("alg %v workers %d: counters %v differ from reference %v",
						alg, workers, res.Metrics.Counters, refCounters)
				}
			}
		}
	}
}

// TestProgressTotals verifies the blocking stage reports exact progress:
// the cumulative done count reaches the advertised total (the number of
// profiles) for both the serial and the sharded build.
func TestProgressTotals(t *testing.T) {
	ds := GenerateDataset(D1D, 0.3)
	for _, workers := range []int{0, 4} {
		var mu sync.Mutex
		finals := make(map[string][2]int64) // stage → {max done, total}
		_, err := Pipeline{FilterRatio: 0.8, Scheme: JS, Algorithm: CNP, Workers: workers}.
			RunContext(context.Background(), ds.Collection, WithProgress(func(stage string, done, total int64) {
				mu.Lock()
				if cur := finals[stage]; done > cur[0] {
					finals[stage] = [2]int64{done, total}
				}
				mu.Unlock()
			}))
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		mu.Lock()
		blocking, ok := finals["blocking"]
		mu.Unlock()
		if !ok {
			t.Fatalf("workers %d: no blocking progress reported", workers)
		}
		if want := int64(len(ds.Collection.Profiles)); blocking[0] != want || blocking[1] != want {
			t.Errorf("workers %d: blocking progress done=%d total=%d, want both %d",
				workers, blocking[0], blocking[1], want)
		}
		mu.Lock()
		prune, ok := finals["prune"]
		mu.Unlock()
		if !ok {
			t.Fatalf("workers %d: no prune progress reported", workers)
		}
		if prune[0] != prune[1] {
			t.Errorf("workers %d: prune progress done=%d != total=%d", workers, prune[0], prune[1])
		}
	}
}

// TestSpanHooks verifies every pipeline stage is bracketed by the span
// hooks in order.
func TestSpanHooks(t *testing.T) {
	ds := GenerateDataset(D1D, 0.1)
	var mu sync.Mutex
	var events []string
	_, err := Pipeline{FilterRatio: 0.8, Scheme: JS, Algorithm: WNP}.
		RunContext(context.Background(), ds.Collection,
			WithSpanHooks(
				func(stage string) {
					mu.Lock()
					events = append(events, "start:"+stage)
					mu.Unlock()
				},
				func(stage string, elapsed time.Duration) {
					if elapsed < 0 {
						t.Errorf("stage %s: negative elapsed %v", stage, elapsed)
					}
					mu.Lock()
					events = append(events, "end:"+stage)
					mu.Unlock()
				}))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"start:blocking", "end:blocking",
		"start:purge", "end:purge",
		"start:filter", "end:filter",
		"start:graph", "end:graph",
		"start:prune", "end:prune",
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("span events %v, want %v", events, want)
	}
}

// TestWorkerSetterKeepsPreset verifies withWorkers does not override a
// blocking method's own Workers field.
func TestWorkerSetterKeepsPreset(t *testing.T) {
	for _, m := range []BlockingMethod{
		TokenBlocking{Workers: 2},
		QGramsBlocking{Workers: 2},
		SuffixArrayBlocking{Workers: 2},
		ExtendedQGramsBlocking{Workers: 2},
	} {
		got := withWorkers(m, 7)
		if w := reflect.ValueOf(got).FieldByName("Workers").Int(); w != 2 {
			t.Errorf("%T: Workers = %d after withWorkers(7), want preset 2", m, w)
		}
	}
	// Methods without a sharded build pass through unchanged.
	if got := withWorkers(StandardBlocking{}, 7); !reflect.DeepEqual(got, StandardBlocking{}) {
		t.Errorf("StandardBlocking changed by withWorkers: %v", got)
	}
}

// TestBuildBlocksWorkers verifies the variadic worker count of BuildBlocks
// keeps the output bit-identical to the serial build.
func TestBuildBlocksWorkers(t *testing.T) {
	ds := GenerateDataset(D1C, 0.2)
	serial := BuildBlocks(ds.Collection, TokenBlocking{}, 0.8)
	parallel := BuildBlocks(ds.Collection, TokenBlocking{}, 0.8, 4)
	if serial.Len() != parallel.Len() || serial.Comparisons() != parallel.Comparisons() {
		t.Fatalf("serial %d blocks/%d comparisons, parallel %d/%d",
			serial.Len(), serial.Comparisons(), parallel.Len(), parallel.Comparisons())
	}
	if !reflect.DeepEqual(serial.Blocks, parallel.Blocks) {
		t.Fatal("parallel BuildBlocks output differs from serial")
	}
}

// TestGraphFreeMetrics verifies the graph-free workflow fills the snapshot
// with the same bookkeeping counters as the graph-based one.
func TestGraphFreeMetrics(t *testing.T) {
	ds := GenerateDataset(D1D, 0.1)
	res, err := Pipeline{GraphFree: true, FilterRatio: 0.8}.
		RunContext(context.Background(), ds.Collection, WithMetrics(NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Counter("filter.comparisons"); got != res.InputComparisons {
		t.Errorf("filter.comparisons %d != InputComparisons %d", got, res.InputComparisons)
	}
	if got := res.Metrics.Counter("prune.pairs"); got != int64(len(res.Pairs)) {
		t.Errorf("prune.pairs %d != len(Pairs) %d", got, len(res.Pairs))
	}
}

// TestGraphFreeDeterminism is TestMetricsDeterminism for the graph-free
// workflow: the retained pairs — element for element, not only as a set —
// and every counter are identical serial or parallel, observed or not, and
// the filter and prune stages are both bracketed by the span hooks.
func TestGraphFreeDeterminism(t *testing.T) {
	ds := GenerateDataset(D2C, 0.15)
	var refPairs []Pair
	var refCounters map[string]int64
	for _, workers := range []int{0, 1, 3} {
		for _, observed := range []bool{false, true} {
			p := Pipeline{GraphFree: true, FilterRatio: 0.55, Workers: workers}
			var opts []RunOption
			var stages []string
			if observed {
				opts = append(opts, WithMetrics(NewMetrics()),
					WithSpanHooks(func(stage string) { stages = append(stages, stage) }, nil))
			}
			res, err := p.RunContext(context.Background(), ds.Collection, opts...)
			if err != nil {
				t.Fatalf("workers %d observed %v: %v", workers, observed, err)
			}
			if refPairs == nil {
				refPairs = res.Pairs
			} else if !reflect.DeepEqual(res.Pairs, refPairs) {
				t.Errorf("workers %d observed %v: pairs differ from reference", workers, observed)
			}
			if res.Stages.Filtering <= 0 || res.Stages.Prune <= 0 || res.Stages.Filtering+res.Stages.Prune != res.OTime {
				t.Errorf("workers %d: stages filtering=%v prune=%v do not split OTime %v",
					workers, res.Stages.Filtering, res.Stages.Prune, res.OTime)
			}
			if !observed {
				continue
			}
			if want := []string{"blocking", "purge", "filter", "prune"}; !reflect.DeepEqual(stages, want) {
				t.Errorf("workers %d: span stages %v, want %v", workers, stages, want)
			}
			if refCounters == nil {
				refCounters = res.Metrics.Counters
			} else if !reflect.DeepEqual(res.Metrics.Counters, refCounters) {
				t.Errorf("workers %d: counters %v differ from reference %v", workers, res.Metrics.Counters, refCounters)
			}
		}
	}
	if len(refPairs) == 0 || refCounters["prune.pairs"] != int64(len(refPairs)) {
		t.Errorf("prune.pairs %d, %d pairs retained", refCounters["prune.pairs"], len(refPairs))
	}
}

// TestMetricsSnapshotTable exercises the human-readable rendering used by
// the -metrics CLI flag.
func TestMetricsSnapshotTable(t *testing.T) {
	ds := GenerateDataset(D1D, 0.1)
	res, err := Pipeline{FilterRatio: 0.8, Scheme: JS, Algorithm: CNP}.
		RunContext(context.Background(), ds.Collection, WithMetrics(NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	table := res.Metrics.Table()
	for _, name := range []string{"blocking.blocks", "filter.comparisons", "prune.pairs"} {
		want := fmt.Sprintf("%s", name)
		if !containsLine(table, want) {
			t.Errorf("table missing %q:\n%s", name, table)
		}
	}
}

func containsLine(s, substr string) bool {
	for i := 0; i+len(substr) <= len(s); i++ {
		if s[i:i+len(substr)] == substr {
			return true
		}
	}
	return false
}
