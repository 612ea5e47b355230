package metablocking

// Benchmarks regenerating the computational kernels behind every table and
// figure of the paper's evaluation (§6). The full tables themselves are
// printed by cmd/experiments; these benches measure the kernels at a
// reduced scale so `go test -bench=.` stays laptop-friendly.
//
//	BenchmarkTable2Blocking      Token Blocking + Block Purging (Table 1a/2)
//	BenchmarkTable1Filtering     Block Filtering r=0.8 (Table 1b)
//	BenchmarkFigure10Sweep       Block Filtering at r = 0.25 / 0.55 / 0.85
//	BenchmarkTable3Pruning       CEP/CNP/WEP/WNP, original weighting, before/after filtering
//	BenchmarkTable5Weighting     Alg. 2 vs Alg. 3 edge weighting (the paper's headline speedup)
//	BenchmarkTable4NewPruning    Redefined/Reciprocal CNP/WNP on filtered blocks
//	BenchmarkTable6Baselines     Graph-free Meta-blocking and Iterative Blocking
//	BenchmarkAblation*           design-choice ablations (DESIGN.md §6)

import (
	"sync"
	"testing"

	"metablocking/internal/block"
	"metablocking/internal/blocking"
	"metablocking/internal/blockproc"
	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/oracle"
)

// benchScale keeps the full bench suite in the minutes range.
const benchScale = 0.08

type benchData struct {
	ds       datagen.Dataset
	original *block.Collection
	filtered *block.Collection
}

var (
	benchOnce  sync.Once
	benchState map[string]*benchData
)

func benchDatasets(b *testing.B) map[string]*benchData {
	b.Helper()
	benchOnce.Do(func() {
		benchState = make(map[string]*benchData)
		for _, ds := range []datagen.Dataset{
			datagen.D1C(benchScale), datagen.D2D(benchScale),
		} {
			blocks := blockproc.BlockPurging{}.Apply(blocking.TokenBlocking{}.Build(ds.Collection))
			benchState[ds.Name] = &benchData{
				ds:       ds,
				original: blocks,
				filtered: blockproc.BlockFiltering{Ratio: 0.8}.Apply(blocks),
			}
		}
	})
	return benchState
}

func forEachDataset(b *testing.B, fn func(b *testing.B, d *benchData)) {
	for _, name := range []string{"D1C", "D2D"} {
		d := benchDatasets(b)[name]
		b.Run(name, func(b *testing.B) { fn(b, d) })
	}
}

// BenchmarkTable2Blocking measures extracting the original block
// collections (Token Blocking + Block Purging), the OTime(B) of Table 1(a).
func BenchmarkTable2Blocking(b *testing.B) {
	forEachDataset(b, func(b *testing.B, d *benchData) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blocks := blocking.TokenBlocking{}.Build(d.ds.Collection)
			blocks = blockproc.BlockPurging{}.Apply(blocks)
			if blocks.Len() == 0 {
				b.Fatal("no blocks")
			}
		}
	})
}

// BenchmarkTable1Filtering measures Block Filtering at the paper's tuned
// r=0.80 (Table 1b).
func BenchmarkTable1Filtering(b *testing.B) {
	forEachDataset(b, func(b *testing.B, d *benchData) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := blockproc.BlockFiltering{Ratio: 0.8}.Apply(d.original)
			if out.Len() == 0 {
				b.Fatal("no blocks")
			}
		}
	})
}

// BenchmarkFigure10Sweep measures Block Filtering at the sweep's
// representative ratios.
func BenchmarkFigure10Sweep(b *testing.B) {
	d := benchDatasets(b)["D2D"]
	for _, r := range []struct {
		name  string
		ratio float64
	}{{"r=0.25", 0.25}, {"r=0.55", 0.55}, {"r=0.85", 0.85}} {
		b.Run(r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blockproc.BlockFiltering{Ratio: r.ratio}.Apply(d.original)
			}
		})
	}
}

// BenchmarkTable3Pruning measures the four existing pruning schemes with
// the Original Edge Weighting (Alg. 2), on the original and the filtered
// blocks — the before/after comparison of Table 3.
func BenchmarkTable3Pruning(b *testing.B) {
	d := benchDatasets(b)["D2D"]
	for _, alg := range []core.Algorithm{core.CEP, core.CNP, core.WEP, core.WNP} {
		for _, in := range []struct {
			name   string
			blocks *block.Collection
		}{{"original", d.original}, {"filtered", d.filtered}} {
			b.Run(alg.String()+"/"+in.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := core.Run(in.blocks, core.Config{
						Scheme: core.JS, Algorithm: alg, OriginalWeighting: true,
					})
					if len(res.Pairs) == 0 {
						b.Fatal("nothing retained")
					}
				}
			})
		}
	}
}

// BenchmarkTable5Weighting isolates the paper's headline efficiency
// result: Optimized Edge Weighting (Alg. 3) vs the Original one (Alg. 2),
// enumerating every edge of the filtered blocking graph with its weight.
func BenchmarkTable5Weighting(b *testing.B) {
	forEachDataset(b, func(b *testing.B, d *benchData) {
		g := core.NewGraph(d.filtered, core.JS)
		b.Run("original", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var n int64
				g.ForEachEdgeOriginal(func(_, _ ID, _ float64) { n++ })
				if n == 0 {
					b.Fatal("no edges")
				}
			}
		})
		b.Run("optimized", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var n int64
				g.ForEachEdge(func(_, _ ID, _ float64) { n++ })
				if n == 0 {
					b.Fatal("no edges")
				}
			}
		})
	})
}

// BenchmarkTable4NewPruning measures the paper's new pruning algorithms on
// the filtered blocks with Optimized Edge Weighting.
func BenchmarkTable4NewPruning(b *testing.B) {
	d := benchDatasets(b)["D2D"]
	for _, alg := range []core.Algorithm{
		core.RedefinedCNP, core.ReciprocalCNP, core.RedefinedWNP, core.ReciprocalWNP,
	} {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := core.Run(d.filtered, core.Config{Scheme: core.JS, Algorithm: alg})
				if len(res.Pairs) == 0 {
					b.Fatal("nothing retained")
				}
			}
		})
	}
}

// BenchmarkTable6Baselines measures the baseline block-processing methods.
func BenchmarkTable6Baselines(b *testing.B) {
	d := benchDatasets(b)["D2D"]
	b.Run("GraphFree/r=0.25", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blockproc.GraphFreeMetaBlocking{Ratio: 0.25}.Apply(d.original)
		}
	})
	b.Run("GraphFree/r=0.55", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blockproc.GraphFreeMetaBlocking{Ratio: 0.55}.Apply(d.original)
		}
	})
	b.Run("IterativeBlocking", func(b *testing.B) {
		m := blockproc.OracleMatcher{GT: d.ds.GroundTruth}
		for i := 0; i < b.N; i++ {
			res := blockproc.IterativeBlocking{Matcher: m}.Run(d.original)
			if len(res.Matches) == 0 {
				b.Fatal("no matches")
			}
		}
	})
}

// BenchmarkAblationFilterThreshold compares Block Filtering's per-profile
// limit (the paper's choice) against a single global threshold (the
// variant §4.1 argues against).
func BenchmarkAblationFilterThreshold(b *testing.B) {
	d := benchDatasets(b)["D2D"]
	global := int(d.original.BPE() * 0.8)
	if global < 1 {
		global = 1
	}
	b.Run("per-profile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blockproc.BlockFiltering{Ratio: 0.8}.Apply(d.original)
		}
	})
	b.Run("global", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blockproc.BlockFiltering{Ratio: 0.8, GlobalThreshold: global}.Apply(d.original)
		}
	})
}

// BenchmarkAblationPropagation compares the node-centric ScanCount pass
// of Comparison Propagation against ref [21]'s LeCoBI condition (one
// block-list intersection per comparison) and the direct hash-set strategy
// the paper deems unusable at scale (§2).
func BenchmarkAblationPropagation(b *testing.B) {
	d := benchDatasets(b)["D1C"]
	for _, row := range []struct {
		name  string
		apply func(*block.Collection) []Pair
	}{
		{"scancount", blockproc.ComparisonPropagation{}.Apply},
		{"lecobi", oracle.PropagateLeCoBI},
		{"direct-hash", oracle.PropagateDirect},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row.apply(d.filtered)
			}
		})
	}
}

// BenchmarkEntityIndex measures building the Entity Index, the shared
// substrate of every meta-blocking traversal.
func BenchmarkEntityIndex(b *testing.B) {
	forEachDataset(b, func(b *testing.B, d *benchData) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			idx := block.NewEntityIndex(d.original)
			if idx.NumEntities() == 0 {
				b.Fatal("empty index")
			}
		}
	})
}

// BenchmarkPipeline measures the end-to-end public API on the paper's
// recommended configurations.
func BenchmarkPipeline(b *testing.B) {
	d := benchDatasets(b)["D2D"]
	for _, cfg := range []struct {
		name string
		alg  Algorithm
	}{{"ReciprocalCNP", ReciprocalCNP}, {"ReciprocalWNP", ReciprocalWNP}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Pipeline{FilterRatio: 0.8, Scheme: JS, Algorithm: cfg.alg}.Run(d.ds.Collection)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Pairs) == 0 {
					b.Fatal("nothing retained")
				}
			}
		})
	}
}

// BenchmarkWeightingSchemes isolates the per-scheme cost of one full
// optimized edge enumeration (EJS pays an extra degree pre-pass, folded
// into graph construction here to reflect real usage).
func BenchmarkWeightingSchemes(b *testing.B) {
	d := benchDatasets(b)["D2D"]
	for _, scheme := range core.AllSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := core.NewGraph(d.filtered, scheme)
				var n int64
				g.ForEachEdge(func(_, _ ID, _ float64) { n++ })
				if n == 0 {
					b.Fatal("no edges")
				}
			}
		})
	}
}
