package metablocking

// BenchmarkParallelPipeline sweeps the Workers knob over the full pipeline
// (sharded Token Blocking → Block Purging → parallel Block Filtering →
// parallel graph construction → parallel pruning) at scale 0.5 — the
// configuration recorded in results_parallel_scale0.5.txt. Workers=1 is
// the serial baseline; every worker count retains the exact same pairs.

import (
	"fmt"
	"sync"
	"testing"

	"metablocking/internal/blockproc"
	"metablocking/internal/datagen"
)

// parallelBenchScale matches the recorded results_parallel_scale0.5.txt run.
const parallelBenchScale = 0.5

var (
	parallelBenchOnce sync.Once
	parallelBenchDS   datagen.Dataset
)

func parallelBenchDataset() datagen.Dataset {
	parallelBenchOnce.Do(func() {
		parallelBenchDS = datagen.D2D(parallelBenchScale)
	})
	return parallelBenchDS
}

func BenchmarkParallelPipeline(b *testing.B) {
	ds := parallelBenchDataset()
	var serialRetained int
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Pipeline{
					FilterRatio: 0.8,
					Scheme:      JS,
					Algorithm:   ReciprocalWNP,
					Workers:     workers,
				}.Run(ds.Collection)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Pairs) == 0 {
					b.Fatal("nothing retained")
				}
				if serialRetained == 0 {
					serialRetained = len(res.Pairs)
				} else if len(res.Pairs) != serialRetained {
					b.Fatalf("workers=%d retained %d pairs, serial retained %d",
						workers, len(res.Pairs), serialRetained)
				}
			}
		})
	}
}

// BenchmarkParallelStages isolates the worker sweep per stage on the same
// dataset: blocking, filtering and the graph-free workflow. The graph+prune
// rows are internal/core's BenchmarkParallelStages, which can also report
// how the pass split its work.
func BenchmarkParallelStages(b *testing.B) {
	ds := parallelBenchDataset()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("blocking/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if (TokenBlocking{Workers: workers}).Build(ds.Collection).Len() == 0 {
					b.Fatal("no blocks")
				}
			}
		})
	}
	blocks := BuildBlocks(ds.Collection, TokenBlocking{}, 0)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("filtering/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if (blockproc.BlockFiltering{Ratio: 0.8, Workers: workers}).Apply(blocks).Len() == 0 {
					b.Fatal("no blocks")
				}
			}
		})
	}
	// The graph-free workflow on the many-attribute shape (the repository
	// benchmark's batch_graphfree): Block Filtering, then the count and
	// fill passes of Comparison Propagation.
	wide := BuildBlocks(datagen.D3D(0.5).Collection, TokenBlocking{}, 0)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("BlockFiltering+ComparisonPropagation/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				filtered := blockproc.BlockFiltering{Ratio: 0.8, Workers: workers}.Apply(wide)
				if len(blockproc.ComparisonPropagation{Workers: workers}.Apply(filtered)) == 0 {
					b.Fatal("nothing retained")
				}
			}
		})
	}
}
