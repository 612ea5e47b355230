// Package supervised implements Supervised Meta-blocking (paper §2,
// ref [23]: Papadakis, Papastefanatos, Koutrika — PVLDB 2014): instead of
// pruning the blocking graph with a single weighting scheme, every edge is
// described by a feature vector combining all co-occurrence signals, and a
// binary classifier trained on a small labelled sample decides which
// comparisons to retain.
//
// The EDBT 2016 paper studies only unsupervised meta-blocking because
// "there is no effective and efficient way for extracting the required
// training set from the input blocks"; with the synthetic benchmarks'
// ground truth this package lifts that restriction and provides the
// supervised baseline for comparison.
package supervised

import (
	"math"

	"metablocking/internal/block"
	"metablocking/internal/entity"
)

// NumFeatures is the edge feature-vector length.
const NumFeatures = 6

// Edge is a comparison with its feature vector.
type Edge struct {
	I, J     entity.ID
	Features [NumFeatures]float64
}

// Extractor derives feature vectors for every non-redundant comparison of
// a block collection via the ScanCount traversal of Algorithm 3, with two
// accumulators per neighbor (shared-block count and Σ 1/‖b‖). It is not
// safe for concurrent use.
type Extractor struct {
	blocks  *block.Collection
	index   *block.EntityIndex
	invCard []float64
	degrees []int32

	flags     []int64
	epoch     int64
	count     []float64
	arcs      []float64
	neighbors []entity.ID
}

// NewExtractor builds the extractor, including the degree pre-pass.
func NewExtractor(c *block.Collection) *Extractor {
	e := &Extractor{
		blocks:  c,
		index:   block.NewEntityIndex(c),
		invCard: make([]float64, len(c.Blocks)),
		flags:   make([]int64, c.NumEntities),
		count:   make([]float64, c.NumEntities),
		arcs:    make([]float64, c.NumEntities),
	}
	for i := range c.Blocks {
		if n := c.Blocks[i].Comparisons(); n > 0 {
			e.invCard[i] = 1 / float64(n)
		}
	}
	e.degrees = make([]int32, c.NumEntities)
	for id := 0; id < c.NumEntities; id++ {
		e.degrees[id] = int32(len(e.scan(entity.ID(id))))
	}
	return e
}

// NumEdges returns the number of distinct comparisons (graph size).
func (e *Extractor) NumEdges() int64 {
	var n int64
	for id := 0; id < e.blocks.NumEntities; id++ {
		n += int64(e.degrees[id])
	}
	return n / 2
}

// scan enumerates the distinct neighbors of i, filling the count and arcs
// accumulators. The returned slice is scratch.
func (e *Extractor) scan(i entity.ID) []entity.ID {
	e.neighbors = e.neighbors[:0]
	e.epoch++
	clean := e.blocks.Task == entity.CleanClean
	iFirst := e.blocks.InFirst(i)
	for _, bid := range e.index.BlockList(i) {
		b := &e.blocks.Blocks[bid]
		others := b.E1
		if clean {
			if iFirst {
				others = b.E2
			}
		}
		inv := e.invCard[bid]
		for _, j := range others {
			if j == i {
				continue
			}
			if e.flags[j] != e.epoch {
				e.flags[j] = e.epoch
				e.count[j] = 0
				e.arcs[j] = 0
				e.neighbors = append(e.neighbors, j)
			}
			e.count[j]++
			e.arcs[j] += inv
		}
	}
	return e.neighbors
}

// ForEachEdge invokes fn once per distinct comparison with its features,
// in deterministic order (ascending smaller endpoint).
func (e *Extractor) ForEachEdge(fn func(Edge)) {
	clean := e.blocks.Task == entity.CleanClean
	limit := e.blocks.NumEntities
	if clean {
		limit = e.blocks.Split
	}
	nb := float64(e.blocks.Len())
	for id := 0; id < limit; id++ {
		i := entity.ID(id)
		if e.index.NumBlocks(i) == 0 {
			continue
		}
		bi := float64(e.index.NumBlocks(i))
		for _, j := range e.scan(i) {
			if !clean && j < i {
				continue
			}
			bj := float64(e.index.NumBlocks(j))
			common := e.count[j]
			fn(Edge{
				I: i, J: j,
				Features: [NumFeatures]float64{
					e.arcs[j],
					common,
					common * math.Log(nb/bi) * math.Log(nb/bj),
					common / (bi + bj - common),
					float64(e.degrees[i]),
					float64(e.degrees[j]),
				},
			})
		}
	}
}
