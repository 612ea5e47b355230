// Package eval computes the paper's effectiveness measures (§3): Pairs
// Completeness (recall), Pairs Quality (precision) and Reduction Ratio. Its
// Report also carries the efficiency measures, Overhead Time and
// Resolution Time, which the caller times.
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
// pairs; Detected counts distinct ground-truth pairs. It is one Count and
// one Merge of a fresh Accumulator; to evaluate many lists, or one list in
// chunks, against the same ground truth, build the Accumulator once.
func EvaluatePairs(pairs []entity.Pair, gt *entity.GroundTruth, baseline int64) Report {
	a := NewAccumulator(gt)
	a.Merge(a.Count(pairs))
	return a.Report(baseline)
}

// Accumulator evaluates a retained-comparison list chunk by chunk. Count
// looks a chunk up against the ground truth and is safe for concurrent use,
// so the chunks of a stream can be counted on the workers that produce
// them; Merge folds one Count's result into the running totals and is not.
type Accumulator struct {
	gt *entity.GroundTruth
	// partners[start[a]:start[a+1]] are the IDs b > a that (a, b) is a
	// ground-truth pair with, ascending, for every a < len(start)-1: a scan
	// of one short list settles a retained pair faster than hashing it. The
	// lists stop at a bound proportional to the ground truth's size, so a
	// stray truth line naming a huge ID costs no memory: a pair whose
	// smaller ID lies beyond them goes to the ground truth's hash.
	start    []int32
	partners []entity.ID

	comparisons int64
	seen        map[entity.Pair]struct{}
}

// NewAccumulator indexes the ground truth by smaller ID, once: it sorts a
// copy of the ground truth's pairs, O(|D| log |D|).
func NewAccumulator(gt *entity.GroundTruth) *Accumulator {
	truth := gt.Pairs() // (A, B) ascending, A < B
	ids := 0
	if len(truth) > 0 {
		ids = min(int(truth[len(truth)-1].A)+1, 64*len(truth)+1<<16)
	}
	a := &Accumulator{gt: gt, start: make([]int32, max(ids, 0)+1), seen: make(map[entity.Pair]struct{})}
	for _, p := range truth {
		if p.A >= 0 && int(p.A) < ids {
			a.start[p.A+1]++
			a.partners = append(a.partners, p.B)
		}
	}
	for i := 1; i < len(a.start); i++ {
		a.start[i] += a.start[i-1]
	}
	return a
}

// Count returns the comparisons of the chunk — its length, repeated pairs
// included — and the ground-truth pairs among them, canonical and with
// repeats. It only reads the Accumulator, so it is safe for concurrent use.
func (a *Accumulator) Count(chunk []entity.Pair) (comparisons int64, found []entity.Pair) {
	ids := uint(len(a.start) - 1)
	for _, p := range chunk {
		p = entity.MakePair(p.A, p.B)
		if uint(p.A) >= ids {
			if a.gt.Contains(p.A, p.B) {
				found = append(found, p)
			}
			continue
		}
		for _, b := range a.partners[a.start[p.A]:a.start[p.A+1]] {
			if b == p.B {
				found = append(found, p)
				break
			}
		}
	}
	return int64(len(chunk)), found
}

// Merge adds one Count's result to the totals, counting each ground-truth
// pair once however many chunks found it.
func (a *Accumulator) Merge(comparisons int64, found []entity.Pair) {
	a.comparisons += comparisons
	for _, p := range found {
		a.seen[p] = struct{}{}
	}
}

// Report measures everything merged so far against the baseline.
func (a *Accumulator) Report(baseline int64) Report {
	return Report{
		Comparisons: a.comparisons,
		Detected:    len(a.seen),
		Duplicates:  a.gt.Size(),
		Baseline:    baseline,
	}
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
