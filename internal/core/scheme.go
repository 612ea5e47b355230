// Package core implements Meta-blocking: the implicit blocking graph, the
// five edge-weighting schemes (Fig. 4), the Original (Alg. 2) and Optimized
// (Alg. 3) edge-weighting implementations, and all pruning algorithms —
// CEP, CNP, WEP, WNP (ref [22]) plus the paper's Redefined and Reciprocal
// node-centric variants (§5).
package core

import (
	"errors"
	"fmt"
)

// ErrUnsupportedScheme is the shared sentinel for "this component cannot
// evaluate that weighting scheme". Components wrap it with their own
// context (e.g. internal/incremental explains why EJS is out of reach),
// and the public metablocking package aliases it, so errors.Is matches
// across every layer.
var ErrUnsupportedScheme = errors.New("metablocking: unsupported weighting scheme")

// Scheme selects the edge-weighting scheme of the blocking graph (Fig. 4).
// All schemes assign higher weights to edges more likely to connect
// matching profiles.
type Scheme int

const (
	// ARCS — Aggregate Reciprocal Comparisons Scheme: Σ 1/‖b‖ over the
	// blocks shared by the two profiles. The smaller the shared blocks,
	// the likelier the match.
	ARCS Scheme = iota
	// CBS — Common Blocks Scheme: |Bij|, the number of shared blocks.
	CBS
	// ECBS — Enhanced Common Blocks Scheme: CBS discounted by the number
	// of blocks each profile appears in.
	ECBS
	// JS — Jaccard Scheme: the portion of blocks shared by the profiles.
	JS
	// EJS — Enhanced Jaccard Scheme: JS discounted by the node degrees
	// (profiles involved in many non-redundant comparisons).
	EJS
)

// AllSchemes lists every weighting scheme, in the paper's order. Experiment
// tables average their measures across these.
var AllSchemes = []Scheme{ARCS, CBS, ECBS, JS, EJS}

// String returns the scheme's acronym as used in the paper.
func (s Scheme) String() string {
	switch s {
	case ARCS:
		return "ARCS"
	case CBS:
		return "CBS"
	case ECBS:
		return "ECBS"
	case JS:
		return "JS"
	case EJS:
		return "EJS"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// NeedsDegrees reports whether the scheme requires node degrees (EJS).
func (s Scheme) NeedsDegrees() bool { return s == EJS }

// usesReciprocalCardinality reports whether the per-block accumulator adds
// 1/‖b‖ (ARCS) rather than 1 (all other schemes).
func (s Scheme) usesReciprocalCardinality() bool { return s == ARCS }
