package metablocking

// The differential oracle harness: every scheme × algorithm × task ×
// workers combination of the production pipeline is cross-checked against
// the naive reference implementation in internal/oracle. The oracle is
// anchored to the paper's worked example by its own tests; here it anchors
// the optimized code paths — ScanCount weighting, bounded heaps, Shewchuk
// thresholds, sharded parallel pruning — to the set-based definitions.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"reflect"

	"metablocking/internal/datagen"
	"metablocking/internal/incremental"
	"metablocking/internal/oracle"
	"metablocking/internal/shard"
)

// diffCollections returns the adversarial random block collections the
// matrix runs on: Dirty and Clean-Clean, skewed Zipf memberships, with
// empty and singleton blocks mixed in.
func diffCollections() map[string]*Blocks {
	out := make(map[string]*Blocks)
	rng := rand.New(rand.NewSource(42))
	for i, cfg := range []oracle.GenConfig{
		{Entities: 30, Blocks: 25, MaxBlockSize: 4, EmptyBlocks: 2, SingletonBlocks: 3},
		{Entities: 60, Blocks: 50, MaxBlockSize: 6, ZipfS: 1.2},
		{Entities: 30, Split: 12, Blocks: 25, MaxBlockSize: 4, EmptyBlocks: 2, SingletonBlocks: 3},
		{Entities: 60, Split: 30, Blocks: 50, MaxBlockSize: 6, ZipfS: 1.2},
	} {
		name := "dirty"
		if cfg.Split > 0 {
			name = "clean"
		}
		out[name+string(rune('A'+i))] = oracle.Random(rng, cfg)
	}
	return out
}

// TestOracleDifferentialMatrix sweeps the full 5 schemes × 8 algorithms
// matrix on random Dirty and Clean-Clean collections: bit-identical
// weights between Algorithm 2, Algorithm 3 and the oracle's explicit
// intersection; exact comparison-multiset equality for serial, original-
// weighting and parallel pruning at 1 and 4 workers; and the Redefined /
// Reciprocal family theorems.
func TestOracleDifferentialMatrix(t *testing.T) {
	for name, c := range diffCollections() {
		t.Run(name, func(t *testing.T) {
			if err := oracle.CheckAll(c, 1, 4); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBlockFilteringMatchesOracle checks Block Filtering — serial and
// parallel — against the brute-force reference across ratios, including
// the degenerate r=1.0 (blocks survive, order changes) on the same
// adversarial collections.
func TestBlockFilteringMatchesOracle(t *testing.T) {
	for name, c := range diffCollections() {
		for _, ratio := range []float64{0.3, 0.5, 0.8, 1.0} {
			if err := oracle.CheckFiltering(c, ratio, 1, 4); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestPipelineMatchesOracle runs the full public pipeline — Token
// Blocking, Block Purging, Block Filtering at the paper's r=0.8, then
// meta-blocking — on synthetic Clean-Clean and Dirty datasets and checks
// the retained comparisons of every scheme × algorithm × workers cell
// against the oracle applied to the same cleaned blocks (BuildBlocks
// mirrors the pipeline's pre-graph stages exactly). It also checks that
// attaching observability does not change the result, and that the worker
// count (1, 4, GOMAXPROCS) never does.
func TestPipelineMatchesOracle(t *testing.T) {
	cfg := datagen.Config{
		Name: "diff", Seed: 7, Size1: 60, Size2: 80, Duplicates: 40,
		Vocabulary: 300, CoreTokens: 4,
		Source1: datagen.SourceConfig{AttributeNames: 3, AttributesPerProfile: 3, TokensPerProfile: 5},
		Source2: datagen.SourceConfig{AttributeNames: 3, AttributesPerProfile: 3, TokensPerProfile: 5},
	}
	clean := datagen.Generate(cfg)
	datasets := map[string]*Collection{
		"clean": clean.Collection,
		"dirty": clean.ToDirty("diffD").Collection,
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}

	for name, coll := range datasets {
		t.Run(name, func(t *testing.T) {
			blocks := BuildBlocks(coll, TokenBlocking{}, 0.8)
			for _, scheme := range []Scheme{ARCS, CBS, ECBS, JS, EJS} {
				for _, alg := range []Algorithm{CEP, CNP, WEP, WNP, RedefinedCNP, ReciprocalCNP, RedefinedWNP, ReciprocalWNP} {
					want := oracle.Prune(blocks, scheme, alg)
					for _, w := range workerCounts {
						p := Pipeline{FilterRatio: 0.8, Scheme: scheme, Algorithm: alg, Workers: w}
						res, err := p.RunContext(context.Background(), coll)
						if err != nil {
							t.Fatalf("%v/%v workers=%d: %v", scheme, alg, w, err)
						}
						got := oracle.SortPairs(append([]Pair(nil), res.Pairs...))
						if !equalPairs(got, want) {
							t.Fatalf("%v/%v workers=%d: pipeline retained %d comparisons, oracle %d (first diff: %v)",
								scheme, alg, w, len(got), len(want), firstDiff(got, want))
						}
					}
					// Observability must be a pure observer: metrics plus a
					// progress sink leave the retained comparisons untouched.
					p := Pipeline{FilterRatio: 0.8, Scheme: scheme, Algorithm: alg, Workers: 4}
					res, err := p.RunContext(context.Background(), coll,
						WithMetrics(NewMetrics()), WithProgress(func(string, int64, int64) {}))
					if err != nil {
						t.Fatalf("%v/%v observed: %v", scheme, alg, err)
					}
					got := oracle.SortPairs(append([]Pair(nil), res.Pairs...))
					if !equalPairs(got, want) {
						t.Fatalf("%v/%v: observability changed the result (%d vs %d pairs)",
							scheme, alg, len(got), len(want))
					}
				}
			}
		})
	}
}

func equalPairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// firstDiff reports the first position where two sorted comparison lists
// disagree, for failure messages.
func firstDiff(a, b []Pair) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("%v vs %v", a[i], b[i])
		}
	}
	return "length"
}

// TestShardedIncrementalMatchesSerial anchors the scatter-gather
// coordinator to the serial incremental resolver: for every scheme ×
// pruning mode × shard count in {1, 4, 16}, the same arrival order must
// produce bit-identical answers — IDs, candidate sets, exact float64
// weights — and a bit-identical canonical snapshot. The shard count is
// an implementation detail that must never leak into results.
func TestShardedIncrementalMatchesSerial(t *testing.T) {
	profiles := datagen.D1D(0.1).Collection.Profiles
	if len(profiles) > 300 {
		profiles = profiles[:300]
	}
	for _, scheme := range []Scheme{ARCS, CBS, ECBS, JS} {
		for _, k := range []int{0, 3} {
			cfg := incremental.Config{Scheme: scheme, K: k, MaxBlockSize: 50}
			serial, err := incremental.NewResolver(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]incremental.BatchResult, len(profiles))
			for i, p := range profiles {
				id, cands := serial.Add(p)
				want[i] = incremental.BatchResult{ID: id, Candidates: cands}
			}
			wantSnap := serial.Snapshot()
			for _, shards := range []int{1, 4, 16} {
				name := fmt.Sprintf("%v/k%d/shards%d", scheme, k, shards)
				g, err := shard.New(shard.Config{Resolver: cfg, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range profiles {
					got, err := g.Resolve(p)
					if err != nil {
						t.Fatalf("%s: arrival %d: %v", name, i, err)
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("%s: arrival %d diverged from serial:\n got %+v\nwant %+v",
							name, i, got, want[i])
					}
				}
				if !reflect.DeepEqual(g.Snapshot(), wantSnap) {
					t.Fatalf("%s: canonical snapshot diverged from serial", name)
				}
				g.Close()
			}
		}
	}
}
