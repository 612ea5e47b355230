package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"metablocking/internal/block"
	"metablocking/internal/blocking"
	"metablocking/internal/datagen"
	"metablocking/internal/entity"
	"metablocking/internal/paperexample"
)

// TestPruneParallelMatchesSerial: for every algorithm, scheme, worker
// count and task type, the parallel implementation must retain exactly
// the serial result (after canonical ordering).
func TestPruneParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inputs := map[string]*block.Collection{
		"dirty":   randomDirtyBlocks(rng, 60, 50),
		"clean":   randomCleanBlocks(rng, 25, 60, 50),
		"example": blocking.TokenBlocking{}.Build(paperexample.Collection()),
	}
	for name, blocks := range inputs {
		for _, scheme := range AllSchemes {
			for _, alg := range AllAlgorithms {
				want := NewGraph(blocks, scheme).Prune(alg)
				sortPairs(want)
				for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
					got := NewGraph(blocks, scheme).PruneParallel(alg, workers)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%v/%v workers=%d: parallel (%d pairs) ≠ serial (%d pairs)",
							name, scheme, alg, workers, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestPruneParallelOnSyntheticDataset exercises the parallel path on a
// realistic blocking graph with default worker count.
func TestPruneParallelOnSyntheticDataset(t *testing.T) {
	ds := datagen.D1C(0.05)
	blocks := blocking.TokenBlocking{}.Build(ds.Collection)
	for _, alg := range []Algorithm{CEP, WEP, RedefinedCNP, ReciprocalWNP} {
		serial := NewGraph(blocks, ECBS).Prune(alg)
		sortPairs(serial)
		parallel := NewGraph(blocks, ECBS).PruneParallel(alg, -1)
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%v: parallel ≠ serial on synthetic data: %d vs %d pairs",
				alg, len(parallel), len(serial))
		}
	}
}

// TestNewGraphWorkersMatchesSerial: the parallel graph construction must
// produce the same Entity Index contents and (for EJS) the same node
// degrees as the serial build, for every worker count.
func TestNewGraphWorkersMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	inputs := map[string]*block.Collection{
		"dirty": randomDirtyBlocks(rng, 60, 50),
		"clean": randomCleanBlocks(rng, 25, 60, 50),
	}
	for name, blocks := range inputs {
		want := NewGraph(blocks, EJS)
		for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0), -1} {
			got := NewGraphWorkers(blocks, EJS, workers)
			if got.NumNodes() != want.NumNodes() {
				t.Fatalf("%s workers=%d: NumNodes %d ≠ %d", name, workers, got.NumNodes(), want.NumNodes())
			}
			for id := 0; id < blocks.NumEntities; id++ {
				i := entity.ID(id)
				if !reflect.DeepEqual(got.index.BlockList(i), want.index.BlockList(i)) {
					t.Fatalf("%s workers=%d entity %d: block lists differ", name, workers, id)
				}
				if got.degrees[i] != want.degrees[i] {
					t.Fatalf("%s workers=%d entity %d: degree %d ≠ %d",
						name, workers, id, got.degrees[i], want.degrees[i])
				}
			}
		}
	}
}

// TestShardSharesImmutableState ensures shards see the same graph but own
// their scratch.
func TestShardSharesImmutableState(t *testing.T) {
	g := exampleGraph(t, EJS)
	s := g.shard()
	if s.index != g.index || s.blocks != g.blocks {
		t.Fatal("shard must share index and blocks")
	}
	if &s.sc.cells[0] == &g.sc.cells[0] {
		t.Fatal("shard must not share scratch arrays")
	}
	if s.scheme != g.scheme || s.numNodes != g.numNodes {
		t.Fatal("shard must inherit the scheme and |VB|")
	}
}

// TestRunWorkersWithOriginalWeighting: OriginalWeighting takes precedence
// over Workers (parallel traversals are optimized-only), and the result
// still matches the serial optimized run.
func TestRunWorkersWithOriginalWeighting(t *testing.T) {
	blocks := blocking.TokenBlocking{}.Build(paperexample.Collection())
	serial := Run(blocks, Config{Scheme: JS, Algorithm: WEP})
	both := Run(blocks, Config{Scheme: JS, Algorithm: WEP, OriginalWeighting: true, Workers: 4})
	if len(serial.Pairs) != len(both.Pairs) {
		t.Fatalf("results differ: %d vs %d", len(serial.Pairs), len(both.Pairs))
	}
	negative := Run(blocks, Config{Scheme: JS, Algorithm: WEP, Workers: -1})
	if len(negative.Pairs) != len(serial.Pairs) {
		t.Fatalf("Workers=-1 changed the result: %d vs %d", len(negative.Pairs), len(serial.Pairs))
	}
}

// TestPruneToChunksConcatenate: the chunks a prune pass emits to a sink
// concatenate to PruneParallel's slice for every algorithm and worker count, none splits
// the pairs of one A, and an answer of several times emitChunk — WEP's
// sorted slice, a node-centric pass's one bucket — is cut into chunks of
// about that size.
func TestPruneToChunksConcatenate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := &block.Collection{Task: entity.Dirty, NumEntities: 2000, Split: 2000}
	for b := 0; b < 400; b++ {
		c.Blocks = append(c.Blocks, block.Block{Key: key(b), E1: sampleIDs(rng, 0, 2000, 40)})
	}
	for _, alg := range AllAlgorithms {
		for _, workers := range []int{1, 2, 3} {
			g := NewGraph(c, JS)
			want := g.PruneParallel(alg, workers)
			var got []entity.Pair
			chunks := 0
			_, err := g.prune(alg, workers).emit(g.obs, func(chunk []entity.Pair) func() error {
				return func() error {
					if len(chunk) == 0 || len(got) > 0 && got[len(got)-1].A == chunk[0].A {
						t.Errorf("%v workers=%d: chunk %d is empty or continues the previous chunk's A", alg, workers, chunks)
					}
					got = append(got, chunk...)
					chunks++
					return nil
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v workers=%d: %d pairs in %d chunks, PruneParallel retains %d", alg, workers, len(got), chunks, len(want))
			}
			if chunks < len(want)/(3*emitChunk) {
				t.Fatalf("%v workers=%d: %d pairs in %d chunks: chunks too large", alg, workers, len(want), chunks)
			}
			if workers == 1 && (alg == WEP || alg == WNP) && len(want) < 2*emitChunk {
				t.Fatalf("%v: %d pairs retained: too few to cut a one-worker answer into chunks", alg, len(want))
			}
		}
	}
}
