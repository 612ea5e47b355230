// Package eval computes the paper's effectiveness and efficiency measures
// (§3): Pairs Completeness (recall), Pairs Quality (precision), Reduction
// Ratio, Overhead Time and Resolution Time.
package eval

import (
	"fmt"
	"time"

	"metablocking/internal/block"
	"metablocking/internal/entity"
)

// Report carries the evaluation of one (restructured) block collection or
// comparison set.
type Report struct {
	// Comparisons is ‖B‖ or ‖B'‖ — the comparison cardinality, counting
	// redundant comparisons where the method retains them.
	Comparisons int64
	// Detected is |D(B)| — distinct ground-truth pairs that would be
	// found by comparing every retained pair.
	Detected int
	// Duplicates is |D(E)| — all existing ground-truth pairs.
	Duplicates int
	// Baseline is the comparison count RR is computed against (‖E‖ for
	// original blocks, ‖B‖ of the input blocks for restructured ones).
	Baseline int64
	// OTime is the overhead of producing the collection; RTime adds the
	// entity-matching cost over all retained comparisons.
	OTime, RTime time.Duration
}

// PC returns Pairs Completeness (recall): |D(B)| / |D(E)|.
func (r Report) PC() float64 {
	if r.Duplicates == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Duplicates)
}

// PQ returns Pairs Quality (precision): |D(B)| / ‖B‖.
func (r Report) PQ() float64 {
	if r.Comparisons == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Comparisons)
}

// RR returns the Reduction Ratio against the baseline cardinality:
// 1 − ‖B'‖/‖B‖.
func (r Report) RR() float64 {
	if r.Baseline == 0 {
		return 0
	}
	return 1 - float64(r.Comparisons)/float64(r.Baseline)
}

// String renders the headline measures compactly.
func (r Report) String() string {
	return fmt.Sprintf("‖B‖=%.3g PC=%.3f PQ=%.2e RR=%.3f OTime=%v",
		float64(r.Comparisons), r.PC(), r.PQ(), r.RR(), r.OTime)
}

// EvaluateBlocks measures a block collection against the ground truth.
// baseline is the cardinality RR is computed against.
func EvaluateBlocks(c *block.Collection, gt *entity.GroundTruth, baseline int64) Report {
	return Report{
		Comparisons: c.Comparisons(),
		Detected:    c.DetectedDuplicates(gt),
		Duplicates:  gt.Size(),
		Baseline:    baseline,
	}
}

// EvaluatePairs measures a retained-comparison list (the output of
// meta-blocking pruning, Comparison Propagation or Graph-free
// Meta-blocking). Comparisons counts list entries including repeated
// pairs; Detected counts distinct ground-truth pairs.
//
// Each call copies and sorts the ground truth (gt.Pairs), O(|D| log |D|)
// on top of the pass over pairs.
func EvaluatePairs(pairs []entity.Pair, gt *entity.GroundTruth, baseline int64) Report {
	// Nearly every retained pair has an endpoint with no duplicate at all:
	// a flag per entity ID settles those without hashing the pair. The flags
	// stop at the largest retained ID — a truth file can name IDs no profile
	// has, and those can match nothing.
	maxID := entity.ID(-1)
	for _, p := range pairs {
		maxID = max(maxID, p.A, p.B)
	}
	truth := gt.Pairs()
	maxTruth := entity.ID(-1)
	for _, p := range truth {
		maxTruth = max(maxTruth, p.B)
	}
	inTruth := make([]bool, int(min(maxID, maxTruth))+1)
	for _, p := range truth {
		if p.A >= 0 && int(p.B) < len(inTruth) { // A < B
			inTruth[p.A], inTruth[p.B] = true, true
		}
	}
	flagged := func(id entity.ID) bool { return uint(id) < uint(len(inTruth)) && inTruth[id] }
	seen := make(map[entity.Pair]struct{})
	for _, p := range pairs {
		if flagged(p.A) && flagged(p.B) && gt.Contains(p.A, p.B) {
			seen[entity.MakePair(p.A, p.B)] = struct{}{}
		}
	}
	return Report{
		Comparisons: int64(len(pairs)),
		Detected:    len(seen),
		Duplicates:  gt.Size(),
		Baseline:    baseline,
	}
}

// Similariter abstracts the matcher used to estimate Resolution Time.
type Similariter interface {
	Similarity(a, b entity.ID) float64
}

// ResolutionTime measures the wall-clock cost of applying the matcher to
// every retained comparison (RTime = OTime + matching time, §3).
func ResolutionTime(m Similariter, pairs []entity.Pair, overhead time.Duration) time.Duration {
	start := time.Now()
	var sink float64
	for _, p := range pairs {
		sink += m.Similarity(p.A, p.B)
	}
	_ = sink
	return overhead + time.Since(start)
}

// Mean averages a slice of float64 measures (used when averaging reports
// across the five weighting schemes, as the paper's tables do).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanDuration averages durations.
func MeanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// MeanInt64 averages int64 counts.
func MeanInt64(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return sum / int64(len(xs))
}
