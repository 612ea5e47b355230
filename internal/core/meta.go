package core

import (
	"time"

	"metablocking/internal/block"
	"metablocking/internal/entity"
	"metablocking/internal/obs"
)

// Config selects a full meta-blocking configuration: one weighting scheme
// combined with one pruning algorithm (Fig. 3 — every combination of the
// two parameters is valid), plus the edge-weighting implementation.
type Config struct {
	Scheme    Scheme
	Algorithm Algorithm
	// OriginalWeighting uses Algorithm 2 instead of the Optimized Edge
	// Weighting of Algorithm 3.
	OriginalWeighting bool
	// Workers is the number of workers for graph construction (Entity
	// Index, EJS degrees) and pruning: 0 or 1 = one, negative = GOMAXPROCS.
	// Pairs come out in canonical order, the same for every worker count.
	// OriginalWeighting prunes on one worker whatever Workers says.
	Workers int
	// Obs is the run's observability handle: graph/prune stage spans,
	// progress, the graph.nodes / prune.* counters and cooperative
	// cancellation. Nil disables all of it. When Obs's context is
	// canceled, Run aborts mid-stage and returns a partial Result the
	// caller must discard after checking Obs.Err.
	Obs *obs.Observer
}

// Result is the output of one meta-blocking run.
type Result struct {
	// Pairs holds the retained comparisons; the original node-centric
	// algorithms (CNP, WNP) may retain a pair twice.
	Pairs []entity.Pair
	// OTime is the overhead: graph construction plus pruning.
	OTime time.Duration
	// GraphTime is the slice of OTime spent building the blocking graph
	// (Entity Index plus, for EJS, the degree pass).
	GraphTime time.Duration
	// PruneTime is the slice of OTime spent pruning.
	PruneTime time.Duration
}

// Run restructures the block collection with the given configuration and
// returns the retained comparisons along with the measured overhead time,
// broken down into graph construction and pruning. Workers parallelizes
// both phases.
func Run(c *block.Collection, cfg Config) Result {
	var pairs []entity.Pair
	res, _ := run(c, cfg, func(ans answer) (int, error) {
		pairs = ans.collect()
		return len(pairs), nil
	})
	res.Pairs = pairs
	return res
}

// RunTo is Run handing the retained comparisons to sink in ordered chunks
// instead of returning them. The chunks concatenate to Run's Pairs and
// never split the pairs of one A; sink runs on the workers, the commits it
// returns on the caller's goroutine in chunk order, and a chunk stays valid
// until its commit returns. Result.Pairs is nil, and
// PruneTime and OTime run to the last commit, so they include the sink's
// work. It returns the first commit error, a panic in sink as
// *par.PanicError, or Obs.Err() when the run was canceled.
func RunTo(c *block.Collection, cfg Config, sink func(chunk []entity.Pair) (commit func() error)) (Result, error) {
	return run(c, cfg, func(ans answer) (int, error) {
		return ans.emit(cfg.Obs, sink)
	})
}

// run builds the graph, prunes it and hands the answer to finish, which
// returns how many pairs it retained.
func run(c *block.Collection, cfg Config, finish func(answer) (int, error)) (Result, error) {
	o := cfg.Obs
	start := time.Now()
	endSpan := o.StartSpan(obs.StageGraph)
	g := NewGraphObserved(c, cfg.Scheme, cfg.Workers, o)
	g.OriginalWeighting = cfg.OriginalWeighting
	endSpan()
	graphDone := time.Now()
	if o.Canceled() {
		return Result{OTime: graphDone.Sub(start), GraphTime: graphDone.Sub(start)}, o.Err()
	}
	o.Counter(obs.CtrGraphNodes).Add(int64(g.NumNodes()))
	endSpan = o.StartSpan(obs.StagePrune)
	if !cfg.OriginalWeighting {
		// The progress total is the exact number of outer-loop iterations
		// of the algorithm's optimized weighting passes; the Original
		// traversals are comparison-driven and report no progress.
		g.meter = o.NewMeter(obs.StagePrune, pruneTicks(cfg.Algorithm, c))
	}
	retained, err := finish(g.prune(cfg.Algorithm, cfg.Workers))
	g.meter = nil
	endSpan()
	o.Counter(obs.CtrPairsRetained).Add(int64(retained))
	end := time.Now()
	return Result{
		OTime:     end.Sub(start),
		GraphTime: graphDone.Sub(start),
		PruneTime: end.Sub(graphDone),
	}, err
}

// pruneTicks returns the exact number of outer-loop iterations the
// algorithm's optimized weighting passes perform over the collection —
// the progress total of the prune stage. Node-centric passes visit every
// entity ID; edge-centric passes visit only the emitting endpoints (all
// IDs for Dirty ER, the E1 side for Clean-Clean ER).
func pruneTicks(a Algorithm, c *block.Collection) int64 {
	node := int64(c.NumEntities)
	edge := node
	if c.Task == entity.CleanClean {
		edge = int64(c.Split)
	}
	switch a {
	case CEP:
		return edge
	case WEP:
		return 2 * edge
	default: // the six node-centric algorithms: one node-centric pass
		return node
	}
}
