package core

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"metablocking/internal/block"
	"metablocking/internal/blocking"
	"metablocking/internal/blockproc"
	"metablocking/internal/datagen"
	"metablocking/internal/entity"
	"metablocking/internal/obs"
	"metablocking/internal/par"
)

// maxShare returns the largest share of the cost of [bounds[0], bounds[last])
// that one of the ranges of bounds carries.
func maxShare(prefix []int64, bounds []int) float64 {
	total := prefix[bounds[len(bounds)-1]] - prefix[bounds[0]]
	if total == 0 {
		return 0
	}
	var most int64
	for r := 0; r+1 < len(bounds); r++ {
		most = max(most, prefix[bounds[r+1]]-prefix[bounds[r]])
	}
	return float64(most) / float64(total)
}

// maxBandShare is maxShare over the ranges of every band of the node-centric
// pass at the given worker count: the largest share of a band's cost that
// one of its concurrent ranges carries.
func maxBandShare(g *Graph, workers, bands int) float64 {
	edges := g.costBounds(0, g.emitEnd(), bands)
	share := 0.0
	for b := 0; b < bands; b++ {
		share = max(share, maxShare(g.costPrefix(), g.costBounds(edges[b], edges[b+1], workers)))
	}
	return share
}

// batchMetaBlocks is the input of the repository benchmark's batch_meta
// workload at the given size: the D2-like shape (a 7-token source followed,
// in ID order, by a 32-token one) as a Dirty collection, token-blocked,
// purged and filtered like cmd/metablock's defaults do.
func batchMetaBlocks(profiles int) *block.Collection {
	n := profiles
	ds := datagen.Generate(datagen.Config{
		Name: "d2-like", Seed: 7,
		Size1: n - n/2, Size2: n / 2, Duplicates: n * 2 / 5, Vocabulary: n * 3 / 2,
		ZipfS: 1.1, CoreTokens: 6,
		Source1: datagen.SourceConfig{AttributeNames: 4, AttributesPerProfile: 4, TokensPerProfile: 7, NoiseRate: 0.13, FillerRate: 0.70},
		Source2: datagen.SourceConfig{AttributeNames: 7, AttributesPerProfile: 7, TokensPerProfile: 32, NoiseRate: 0.13, FillerRate: 0.55},
	}).ToDirty("batch_meta")
	blocks := blockproc.BlockPurging{}.Apply(blocking.TokenBlocking{}.Build(ds.Collection))
	return blockproc.BlockFiltering{Ratio: 0.8}.Apply(blocks)
}

// TestCostPrefixCountsLoopTrips: a node's cost is, over its blocks, the
// members its scan walks plus the members with a larger ID — counted here
// the slow way, from the Entity Index.
func TestCostPrefixCountsLoopTrips(t *testing.T) {
	for name, blocks := range wnpInputs() {
		g := NewGraph(blocks, JS)
		prefix := g.costPrefix()
		for id := 0; id < blocks.NumEntities; id++ {
			i := entity.ID(id)
			var want int64
			for _, bid := range g.index.BlockList(i) {
				others := blocks.Blocks[bid].E1
				if blocks.Task == entity.CleanClean && blocks.InFirst(i) {
					others = blocks.Blocks[bid].E2
				}
				want += int64(len(others))
				for _, j := range others {
					if j > i {
						want++
					}
				}
			}
			if got := prefix[id+1] - prefix[id]; got != want {
				t.Fatalf("%s node %d: cost %d, want %d", name, id, got, want)
			}
		}
	}
}

// TestCostBalancedSplitOnSkew: on the shapes an equal-count split serves
// worst, the cost-balanced one hands every worker its share — up to the one
// node no split can divide.
func TestCostBalancedSplitOnSkew(t *testing.T) {
	inputs := wnpInputs()

	g := NewGraph(inputs["dirty-skew"], JS)
	n := inputs["dirty-skew"].NumEntities
	if share := maxShare(g.costPrefix(), []int{0, n / 2, n}); share < 0.7 {
		t.Fatalf("dirty-skew: the upper half of the IDs carries %.2f of the cost: input tells nothing", share)
	}
	if share := maxShare(g.costPrefix(), g.costBounds(0, n, 2)); share > 0.55 {
		t.Errorf("dirty-skew: one of two workers carries %.2f of the cost, want at most 0.55", share)
	}

	g = NewGraph(inputs["hub-half"], JS)
	n = inputs["hub-half"].NumEntities
	prefix := g.costPrefix()
	if hub := prefix[6] - prefix[5]; 2*hub < prefix[n] {
		t.Fatalf("hub-half: the hub costs %d of %d: input tells nothing", hub, prefix[n])
	}
	for _, workers := range []int{2, 3, 4, 7} {
		bounds := g.costBounds(0, n, workers)
		empty := 0
		for r := 0; r < workers; r++ {
			if bounds[r] == bounds[r+1] {
				empty++
			}
		}
		// From four workers on the hub spans at least two whole shares.
		if workers >= 4 && empty == 0 {
			t.Errorf("hub-half workers=%d: bounds %v leave no range empty beside the hub's", workers, bounds)
		}
		var ran atomic.Int64
		g.parallelRangesIn(0, n, workers, func(_ *Graph, _, lo, hi int) {
			if lo >= hi {
				t.Errorf("hub-half workers=%d: empty range [%d, %d) was started", workers, lo, hi)
			}
			ran.Add(1)
		})
		if int(ran.Load()) != workers-empty {
			t.Errorf("hub-half workers=%d: %d ranges ran, want %d", workers, ran.Load(), workers-empty)
		}
	}
}

// TestPruneParallelMatchesSerialOnSkew is TestPruneParallelMatchesSerial —
// all eight algorithms, CEP and WEP included — on the skewed shapes, where
// ranges differ widely in length and some are empty.
func TestPruneParallelMatchesSerialOnSkew(t *testing.T) {
	inputs := wnpInputs()
	for _, name := range []string{"dirty-skew", "hub-half"} {
		blocks := inputs[name]
		for _, scheme := range AllSchemes {
			for _, alg := range AllAlgorithms {
				want := NewGraph(blocks, scheme).Prune(alg)
				sortPairs(want)
				for _, workers := range []int{1, 2, 3, 4, 7, blocks.NumEntities + 1} {
					got := NewGraphWorkers(blocks, scheme, workers).PruneParallel(alg, workers)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%v/%v workers=%d: parallel (%d pairs) ≠ serial (%d pairs)",
							name, scheme, alg, workers, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestBatchMetaShapeBalance pins, on the batch_meta shape at a tenth of its
// size, the two counts the banded cost-balanced pass is for. At two workers
// no range carries more than 0.55 of its band's cost (the equal-count split
// gave the upper half of the IDs 0.90 of the whole pass), and fewer than
// 2.6 % of the edges wait on the pending list — 150 000 of the workload's
// 5 762 689; the same split run as one band leaves 11.5 % there.
func TestBatchMetaShapeBalance(t *testing.T) {
	blocks := batchMetaBlocks(1300)
	g := NewGraph(blocks, JS)
	n := blocks.NumEntities
	if share := maxShare(g.costPrefix(), []int{0, n / 2, n}); share < 0.8 {
		t.Fatalf("the upper half of the IDs carries %.3f of the cost: not the batch_meta shape", share)
	}
	if share := maxBandShare(g, 2, nodeBands); share > 0.55 {
		t.Errorf("a range carries %.3f of its band's cost, want at most 0.55", share)
	}
	edges := float64(g.NumEdges())
	banded, _ := g.nodeBuckets(ReciprocalWNP, 2)
	oneBand, _ := g.nodeBucketsIn(ReciprocalWNP, 2, 1)
	if pending := float64(pendingSlots(banded)); pending > 0.026*edges {
		t.Errorf("%.0f of %.0f edges pending in %d bands, want at most 2.6 %%", pending, edges, nodeBands)
	}
	if pending := float64(pendingSlots(oneBand)); pending < 0.05*edges {
		t.Errorf("%.0f of %.0f edges pending in one band: the bands are no longer what keeps the list short", pending, edges)
	}
}

// TestCleanCleanEdgePassesUseBothWorkers: WEP and CEP fan out over the E1
// side, the only IDs that emit edges, so at two workers both ranges have
// edges to weigh — over [0, NumEntities) the second one was all E2 and the
// pass serial.
func TestCleanCleanEdgePassesUseBothWorkers(t *testing.T) {
	blocks := wnpInputs()["clean"]
	g := NewGraph(blocks, JS)
	weighed := make([]int64, 2)
	g.parallelEdgeRanges(2, func(w *Graph, worker, lo, hi int) {
		w.forEachEdgeRange(lo, hi, func(_, _ entity.ID, _ float64) { weighed[worker]++ })
	})
	if weighed[0] == 0 || weighed[1] == 0 {
		t.Errorf("edges weighed per range: %v, want both ranges busy", weighed)
	}
	if edges := g.NumEdges(); weighed[0]+weighed[1] != edges {
		t.Errorf("ranges weighed %d edges, the graph has %d", weighed[0]+weighed[1], edges)
	}
}

// panicInWorker is the frame TestParallelRangesPanicIsolation looks for in
// the recovered stack.
func panicInWorker() { panic("worker bug") }

// TestParallelRangesPanicIsolation: a panic inside one core worker comes
// back on the caller as a *par.PanicError with that worker's stack, the
// other worker runs to completion, and the scratch both took from the pool
// serves the next pass.
func TestParallelRangesPanicIsolation(t *testing.T) {
	blocks := wnpInputs()["dirty"]
	g := NewGraph(blocks, JS)
	var drained atomic.Bool
	var pe *par.PanicError
	func() {
		defer func() { pe, _ = recover().(*par.PanicError) }()
		g.parallelRangesIn(0, blocks.NumEntities, 2, func(w *Graph, worker, lo, hi int) {
			if worker == 0 {
				panicInWorker()
			}
			w.forEachNodeRange(lo, hi, func(entity.ID, []entity.ID, []float64) {})
			drained.Store(true)
		})
		t.Fatal("no panic propagated")
	}()
	if pe == nil || pe.Value != "worker bug" {
		t.Fatalf("recovered %+v, want a *par.PanicError carrying the worker's value", pe)
	}
	if !strings.Contains(string(pe.Stack), "panicInWorker") {
		t.Errorf("stack does not show the panicking worker's frame:\n%s", pe.Stack)
	}
	if !drained.Load() {
		t.Error("the other worker did not run to completion")
	}
	want := NewGraph(blocks, JS).Prune(ReciprocalWNP)
	sortPairs(want)
	if got := g.PruneParallel(ReciprocalWNP, 2); !reflect.DeepEqual(got, want) {
		t.Errorf("after the panic the graph retains %d pairs, want %d", len(got), len(want))
	}
}

// TestCancelBetweenBands: a range of the banded pass is far shorter than
// the obs.Stride nodes between two cancellation polls, so the pass must look
// at the context at every barrier: canceled at the first prune tick — the
// end of the first range — it weighs a fraction of the 2·|E| edges a full
// pass does.
func TestCancelBetweenBands(t *testing.T) {
	blocks := batchMetaBlocks(1300)
	if blocks.NumEntities/2 >= obs.Stride {
		t.Fatalf("%d nodes: a worker's range reaches the stride of %d on its own", blocks.NumEntities, obs.Stride)
	}
	edges := NewGraph(blocks, JS).NumEdges()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := obs.NewMetrics()
	var once sync.Once
	o := obs.New(ctx, obs.WithMetrics(m), obs.WithProgress(func(stage string, _, _ int64) {
		if stage == obs.StagePrune {
			once.Do(cancel)
		}
	}))
	Run(blocks, Config{Scheme: JS, Algorithm: ReciprocalWNP, Workers: 2, Obs: o})
	if o.Err() == nil {
		t.Fatal("the prune stage reported no progress; nothing was canceled")
	}
	if weighed := m.Counter(obs.CtrEdgesWeighted).Value(); weighed == 0 || weighed >= 2*edges {
		t.Errorf("canceled at the first prune tick, the pass weighed %d edges; a full pass weighs %d", weighed, 2*edges)
	}
}
