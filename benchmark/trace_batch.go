package main

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"metablocking/internal/block"
	"metablocking/internal/blocking"
	"metablocking/internal/blockproc"
	"metablocking/internal/core"
	"metablocking/internal/dataio"
	"metablocking/internal/entity"
	"metablocking/internal/eval"
)

// Span names of the batch stages; each is one public call (two for the
// CSV inputs) under the repetition's root span.
const (
	spanPipeline  = "pipeline"
	spanRead      = "dataio.read"
	spanBuild     = "blocking.build"
	spanPurge     = "blockproc.purge"
	spanFilter    = "blockproc.filter"
	spanPropagate = "blockproc.propagate"
	spanGraph     = "core.graph"
	spanPrune     = "core.prune"
	spanWrite     = "dataio.write"
	spanEval      = "eval.evaluate"
)

// traceReps is how many times the traced batch run repeats the stages;
// every stage time is the median over them.
const traceReps = 3

// pipelineWorkers is cmd/metablock's default -workers: one per CPU.
const pipelineWorkers = -1

// traceBatch produces a batch workload's per-layer metrics. One
// end-to-end round with the real binary gives the tracing-off wall time
// and the answer; then the harness runs the stages Pipeline.RunContext
// runs with cmd/metablock's default flags, one public call each, in the
// same order, with a span around each, and holds the pairs it ends with
// to the binary's.
func traceBatch(ctx context.Context, e *env, w workload, reps int, spansOut string) (map[string]float64, traceSummary, error) {
	var ts traceSummary
	m := map[string]float64{}
	r, answer, err := batchRound(ctx, e, w, 0)
	if err != nil {
		return nil, ts, err
	}
	ts.attempted, ts.failed, ts.notes, ts.digest = r.attempted, r.failed, r.notes, r.digest

	dir, err := e.roundDir(w, 1)
	if err != nil {
		return nil, ts, err
	}
	defer os.RemoveAll(dir)
	in, err := buildBatchInputs(w, e.seed, dir)
	if err != nil {
		return nil, ts, err
	}

	rec := newRecorder()
	rec.on.Store(true)
	var filtered *block.Collection
	for rep := 0; rep < reps; rep++ {
		if err := ctx.Err(); err != nil {
			return nil, ts, err
		}
		ts.attempted++
		st, err := runStages(rec, rep, w, in, filepath.Join(dir, "pairs.trace.csv"))
		if err != nil {
			return nil, ts, err
		}
		filtered = st.filtered
		got, err := digestPairsFile(st.out)
		os.Remove(st.out)
		if err != nil {
			return nil, ts, err
		}
		if got != answer {
			ts.fail("traced stages end with %d pairs (%.12s), cmd/metablock wrote %d (%.12s)",
				got.count, got.hash, answer.count, answer.hash)
		}
		if got, want := qualityOf(st.report.PC(), st.report.PQ(), st.report.RR()), r.counts.quality; got != want {
			ts.fail("traced stages evaluate to PC=%s PQ=%s RR=%s, cmd/metablock printed PC=%s PQ=%s RR=%s",
				got.pc, got.pq, got.rr, want.pc, want.pq, want.rr)
		}
		m["blocking.blocks"] = float64(st.blocks)
		m["blocking.comparisons"] = float64(st.comparisons)
		m["blockproc.comparisons_after_filter"] = float64(st.filtered.Comparisons())
		m["eval.pc"], m["eval.pq"], m["eval.rr"] = st.report.PC(), st.report.PQ(), st.report.RR()
		if !w.graphFree {
			m["core.pairs"] = float64(st.pairs)
		}
	}
	if !w.graphFree {
		// Optimized Edge Weighting (Alg. 3) alone: every edge of the
		// blocking graph weighed once, serially, into a counter. It is
		// part of core.prune_s above, timed here on its own.
		g := core.NewGraph(filtered, core.JS)
		var edges int64
		start := time.Now()
		g.ForEachEdge(func(_, _ entity.ID, _ float64) { edges++ })
		weigh := time.Since(start)
		m["core.weight_s"] = weigh.Seconds()
		m["core.edges"] = float64(edges)
		m["core.ns_per_edge"] = ratio(float64(weigh.Nanoseconds()), float64(edges))
	}
	if spansOut != "" {
		if err := writeSpans(spansOut, w.name+"/stages", rec.spans); err != nil {
			return nil, ts, err
		}
	}

	sec := func(name string) float64 { return median(durationsUS(rec.spans, name)) / 1e6 }
	m["dataio.read_s"] = sec(spanRead)
	m["dataio.write_s"] = sec(spanWrite)
	m["blocking.build_s"] = sec(spanBuild)
	m["blockproc.purge_s"] = sec(spanPurge)
	m["blockproc.filter_s"] = sec(spanFilter)
	m["blockproc.propagate_s"] = sec(spanPropagate)
	m["core.graph_s"] = sec(spanGraph)
	m["core.prune_s"] = sec(spanPrune)

	// The stages against the repetition they ran in, and the repetition
	// against the real process with tracing off (exec, runtime start-up
	// and exit are the difference).
	self := median(selfUSOf(rec.spans, spanPipeline))
	whole := median(durationsUS(rec.spans, spanPipeline))
	m["trace.sum_over_e2e"] = ratio(whole-self, whole)
	m["trace.e2e_ratio"] = ratio(whole/1e3, r.metrics["op_p50_ms"])
	return m, ts, nil
}

// stageOutput is what one traced repetition leaves behind.
type stageOutput struct {
	out         string
	blocks      int
	comparisons int64
	filtered    *block.Collection
	pairs       int
	report      eval.Report
}

// runStages is one repetition: the public calls of the pipeline, serially.
func runStages(rec *recorder, rep int, w workload, in *batchInputs, out string) (stageOutput, error) {
	st := stageOutput{out: out}
	root := rec.root(spanPipeline, rep)
	defer rec.end(root)
	stage := func(name string, fn func() error) error {
		id := rec.child(name)
		defer rec.end(id)
		return fn()
	}

	var coll *entity.Collection
	var gt *entity.GroundTruth
	if err := stage(spanRead, func() error {
		pf, err := os.Open(in.profilesPath)
		if err != nil {
			return err
		}
		defer pf.Close()
		if coll, err = dataio.ReadProfilesCSV(pf); err != nil {
			return err
		}
		tf, err := os.Open(in.truthPath)
		if err != nil {
			return err
		}
		defer tf.Close()
		gt, err = dataio.ReadGroundTruthCSV(tf)
		return err
	}); err != nil {
		return st, err
	}

	var blocks *block.Collection
	stage(spanBuild, func() error {
		blocks = blocking.TokenBlocking{}.WithWorkers(pipelineWorkers).Build(coll)
		return nil
	})
	st.blocks, st.comparisons = blocks.Len(), blocks.Comparisons()
	stage(spanPurge, func() error {
		blocks = blockproc.BlockPurging{}.Apply(blocks)
		return nil
	})

	var pairs []entity.Pair
	baseline := blocks.Comparisons() // the graph-free run evaluates against the purged blocks
	if w.graphFree {
		// GraphFreeMetaBlocking.Apply is these two calls.
		stage(spanFilter, func() error {
			st.filtered = blockproc.BlockFiltering{Ratio: 0.8}.Apply(blocks)
			return nil
		})
		stage(spanPropagate, func() error {
			pairs = blockproc.ComparisonPropagation{}.Apply(st.filtered)
			return nil
		})
	} else {
		stage(spanFilter, func() error {
			st.filtered = blockproc.BlockFiltering{Ratio: 0.8, Workers: pipelineWorkers}.Apply(blocks)
			return nil
		})
		baseline = st.filtered.Comparisons()
		var g *core.Graph
		stage(spanGraph, func() error {
			g = core.NewGraphWorkers(st.filtered, core.JS, pipelineWorkers)
			return nil
		})
		stage(spanPrune, func() error {
			pairs = g.PruneParallel(core.ReciprocalWNP, pipelineWorkers)
			return nil
		})
	}
	st.pairs = len(pairs)

	stage(spanEval, func() error {
		st.report = eval.EvaluatePairs(pairs, gt, baseline)
		return nil
	})
	err := stage(spanWrite, func() error {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := dataio.WritePairsCSV(f, pairs); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	return st, err
}
