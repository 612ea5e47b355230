package core

import (
	"context"
	"fmt"
	"testing"

	"metablocking/internal/blocking"
	"metablocking/internal/blockproc"
	"metablocking/internal/datagen"
	"metablocking/internal/obs"
)

// BenchmarkParallelStages holds the graph+prune rows of the root package's
// benchmark of the same name (`make bench-parallel` runs both): graph
// construction plus pruning for all eight algorithms on the same D2D(0.5)
// blocks, purged and filtered, at the worker counts the bench host has CPUs
// for. Beside ns/op and allocs/op every row reports three counts that
// repeat exactly, because the ranges are a function of the input alone:
//
//   - edges_weighted/op, the pass count: 2·|E| for the single node-centric
//     pass whatever the algorithm and worker count, |E| for CEP, 2·|E| for
//     WEP's two passes;
//   - max_worker_share, the largest share of the scan cost of one round of
//     concurrent ranges — a band of the node-centric pass, the whole pass
//     for CEP and WEP — that a single range carries: 1/workers is a split
//     that lets every worker finish together;
//   - pending_slots/op, the edges of the node-centric pass that had to wait
//     for a barrier because their endpoints ran concurrently.
func BenchmarkParallelStages(b *testing.B) {
	blocks := blockproc.BlockPurging{}.Apply(blocking.TokenBlocking{}.Build(datagen.D2D(0.5).Collection))
	filtered := blockproc.BlockFiltering{Ratio: 0.8}.Apply(blocks)
	for _, alg := range AllAlgorithms {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("graph+prune/%v/workers=%d", alg, workers), func(b *testing.B) {
				b.ReportAllocs()
				m := obs.NewMetrics()
				o := obs.New(context.Background(), obs.WithMetrics(m))
				for i := 0; i < b.N; i++ {
					if len(Run(filtered, Config{Scheme: JS, Algorithm: alg, Workers: workers, Obs: o}).Pairs) == 0 {
						b.Fatal("nothing retained")
					}
				}
				b.StopTimer() // the counts below are not part of the op
				b.ReportMetric(float64(m.Counter(obs.CtrEdgesWeighted).Value())/float64(b.N), "edges_weighted/op")
				g := NewGraph(filtered, JS)
				bands, pending := 1, 0
				if alg.NodeCentric() {
					buckets, _ := g.nodeBuckets(alg, workers)
					bands, pending = len(buckets)/workers, pendingSlots(buckets)
				}
				b.ReportMetric(maxBandShare(g, workers, bands), "max_worker_share")
				b.ReportMetric(float64(pending), "pending_slots/op")
			})
		}
	}
}

// BenchmarkParallelNodeCentric times the node-centric pass alone — Reciprocal
// WNP on the filtered D2D(0.5) blocks of BenchmarkParallelStages, for all
// five schemes at one and two workers — and reports its cost per weighed
// endpoint (ns/weighed-endpoint: the op's time over its prune.edges_weighted,
// two per edge) beside the exact-mean fallbacks/op. The graph, and with it
// the EJS degree pass, is built outside the timer, so each row is the
// weighing, the thresholds and the decisions of one pass; the schemes
// differ only in the per-edge arithmetic of the weighing.
func BenchmarkParallelNodeCentric(b *testing.B) {
	blocks := blockproc.BlockPurging{}.Apply(blocking.TokenBlocking{}.Build(datagen.D2D(0.5).Collection))
	filtered := blockproc.BlockFiltering{Ratio: 0.8}.Apply(blocks)
	for _, scheme := range AllSchemes {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%v/workers=%d", scheme, workers), func(b *testing.B) {
				m := obs.NewMetrics()
				g := NewGraphObserved(filtered, scheme, workers, obs.New(context.Background(), obs.WithMetrics(m)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if len(g.PruneParallel(ReciprocalWNP, workers)) == 0 {
						b.Fatal("nothing retained")
					}
				}
				b.StopTimer()
				weighed := m.Counter(obs.CtrEdgesWeighted).Value()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(weighed), "ns/weighed-endpoint")
				b.ReportMetric(float64(m.Counter(obs.CtrExactMeanFallbacks).Value())/float64(b.N), "fallbacks/op")
			})
		}
	}
}
