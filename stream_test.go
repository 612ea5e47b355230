package metablocking

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
)

// collectingSink is a PairSink that copies each chunk on the worker and
// appends the copies to chunks in commit order.
type collectingSink struct {
	chunks [][]Pair
	calls  atomic.Int64
}

func (s *collectingSink) sink(chunk []Pair) func() error {
	s.calls.Add(1)
	own := append([]Pair(nil), chunk...)
	return func() error {
		s.chunks = append(s.chunks, own)
		return nil
	}
}

// TestStreamMatchesRun: the chunks Stream hands over concatenate, element
// for element, to RunContext's Pairs; no chunk splits the pairs of one A;
// and the result carries RunContext's counters with no Pairs — for every
// pruning algorithm and the graph-free workflow, on both tasks, at every
// worker count.
func TestStreamMatchesRun(t *testing.T) {
	ctx := context.Background()
	pipelines := []Pipeline{{GraphFree: true, FilterRatio: 0.55}}
	for _, alg := range []Algorithm{CEP, CNP, WEP, WNP, RedefinedCNP, ReciprocalCNP, RedefinedWNP, ReciprocalWNP} {
		pipelines = append(pipelines, Pipeline{FilterRatio: 0.8, Scheme: JS, Algorithm: alg})
	}
	for _, id := range []DatasetID{D1D, D1C} {
		ds := GenerateDataset(id, 0.05)
		for _, p := range pipelines {
			for _, workers := range []int{0, 1, 2, 3, -1} {
				p.Workers = workers
				name := p.Algorithm.String()
				if p.GraphFree {
					name = "graph-free"
				}
				want, err := p.RunContext(ctx, ds.Collection, WithMetrics(NewMetrics()))
				if err != nil {
					t.Fatal(err)
				}
				var s collectingSink
				got, err := p.Stream(ctx, ds.Collection, s.sink, WithMetrics(NewMetrics()))
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", ds.Name, name, workers, err)
				}
				var all []Pair
				for k, chunk := range s.chunks {
					if len(chunk) == 0 {
						t.Fatalf("%s %s workers=%d: chunk %d is empty", ds.Name, name, workers, k)
					}
					if k > 0 && all[len(all)-1].A == chunk[0].A {
						t.Fatalf("%s %s workers=%d: chunk %d continues the pairs of A=%d", ds.Name, name, workers, k, chunk[0].A)
					}
					all = append(all, chunk...)
				}
				if len(want.Pairs) == 0 || !reflect.DeepEqual(all, want.Pairs) {
					t.Fatalf("%s %s workers=%d: streamed %d pairs in %d chunks, RunContext returned %d",
						ds.Name, name, workers, len(all), len(s.chunks), len(want.Pairs))
				}
				if int(s.calls.Load()) != len(s.chunks) {
					t.Fatalf("%s %s workers=%d: sink called %d times, %d commits ran", ds.Name, name, workers, s.calls.Load(), len(s.chunks))
				}
				if got.Pairs != nil || got.InputBlocks != want.InputBlocks || got.InputComparisons != want.InputComparisons ||
					!reflect.DeepEqual(got.Metrics.Counters, want.Metrics.Counters) {
					t.Fatalf("%s %s workers=%d: Stream result %+v differs from RunContext's %+v beyond Pairs",
						ds.Name, name, workers, got.Metrics.Counters, want.Metrics.Counters)
				}
				if got.OTime <= 0 || got.Stages.Prune <= 0 || got.Stages.Prune > got.OTime {
					t.Fatalf("%s %s workers=%d: OTime %v, prune %v", ds.Name, name, workers, got.OTime, got.Stages.Prune)
				}
			}
		}
	}
}

// TestStreamCanceled: under a canceled context Stream returns ctx.Err() and
// a nil result, and no commit runs once the context is canceled — whether
// it was canceled before the run or by a commit in the middle of it.
func TestStreamCanceled(t *testing.T) {
	ds := GenerateDataset(D1D, 0.1)
	for name, p := range map[string]Pipeline{
		"graph":      {FilterRatio: 0.8, Scheme: JS, Algorithm: WNP, Workers: 2},
		"graph-free": {FilterRatio: 0.8, GraphFree: true, Workers: 2},
		"serial":     {FilterRatio: 0.8, GraphFree: true},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var commits atomic.Int64
		res, err := p.Stream(ctx, ds.Collection, func([]Pair) func() error {
			return func() error { commits.Add(1); return nil }
		})
		if !errors.Is(err, context.Canceled) || res != nil || commits.Load() != 0 {
			t.Fatalf("%s, canceled before: err %v, result %v, %d commits", name, err, res, commits.Load())
		}

		ctx, cancel = context.WithCancel(context.Background())
		var canceled atomic.Bool
		res, err = p.Stream(ctx, ds.Collection, func([]Pair) func() error {
			return func() error {
				if canceled.Load() {
					t.Errorf("%s: a commit ran after the context was canceled", name)
				}
				canceled.Store(true)
				cancel()
				return nil
			}
		})
		if !errors.Is(err, context.Canceled) || res != nil || !canceled.Load() {
			t.Fatalf("%s, canceled by the first commit: err %v, result %v", name, err, res)
		}
	}
}

// TestStreamCommitError: a commit's error ends the run and is returned.
func TestStreamCommitError(t *testing.T) {
	ds := GenerateDataset(D1D, 0.05)
	boom := errors.New("disk full")
	for _, p := range []Pipeline{
		{FilterRatio: 0.8, Scheme: JS, Algorithm: ReciprocalWNP, Workers: 3},
		{FilterRatio: 0.8, GraphFree: true, Workers: 3},
	} {
		var commits int
		res, err := p.Stream(context.Background(), ds.Collection, func([]Pair) func() error {
			return func() error { commits++; return boom }
		})
		if !errors.Is(err, boom) || res != nil || commits != 1 {
			t.Fatalf("graph-free=%v: err %v, result %v, %d commits", p.GraphFree, err, res, commits)
		}
	}
}

// TestStreamRecoversSinkPanic: a panic in the sink, on a worker, comes
// back as a *PanicError.
func TestStreamRecoversSinkPanic(t *testing.T) {
	ds := GenerateDataset(D1D, 0.05)
	for _, workers := range []int{0, 2} {
		res, err := Pipeline{FilterRatio: 0.8, GraphFree: true, Workers: workers}.Stream(context.Background(), ds.Collection,
			func([]Pair) func() error { panic("sink bug") })
		var pe *PanicError
		if res != nil || !errors.As(err, &pe) || pe.Value != "sink bug" {
			t.Fatalf("workers=%d: result %v, err %v, want a *PanicError", workers, res, err)
		}
	}
}
