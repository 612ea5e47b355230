// Package blockproc implements the block-processing methods that surround
// meta-blocking in the paper: Block Purging and Block Filtering (pre-
// processing, §2 and §4.1), Comparison Propagation (redundant comparison
// removal, §2), the Iterative Blocking baseline (§6.4), and
// Graph-free Meta-blocking (Block Filtering + Comparison Propagation,
// §4.1 / §6.4).
package blockproc

import (
	"metablocking/internal/block"
	"metablocking/internal/entity"
)

// BlockPurging discards oversized blocks that are dominated by redundant
// and superfluous comparisons (paper §2, ref [21]). Following the paper's
// experimental setup (§6.2), a block is purged when it contains more than
// MaxSizeRatio of the input entity profiles; an optional absolute
// comparison cap can purge blocks by cardinality as well.
type BlockPurging struct {
	// MaxSizeRatio purges blocks with more than MaxSizeRatio·|E| profiles.
	// Values <= 0 default to 0.5, the paper's setting.
	MaxSizeRatio float64
	// MaxComparisons, when positive, additionally purges blocks whose
	// individual cardinality ‖b‖ exceeds it.
	MaxComparisons int64
}

// Apply returns a new collection without the purged blocks. Block order is
// preserved.
func (p BlockPurging) Apply(c *block.Collection) *block.Collection {
	ratio := p.MaxSizeRatio
	if ratio <= 0 {
		ratio = 0.5
	}
	maxSize := int(ratio * float64(c.NumEntities))
	out := &block.Collection{Task: c.Task, NumEntities: c.NumEntities, Split: c.Split}
	for i := range c.Blocks {
		b := &c.Blocks[i]
		if b.Size() > maxSize {
			continue
		}
		if p.MaxComparisons > 0 && b.Comparisons() > p.MaxComparisons {
			continue
		}
		out.Blocks = append(out.Blocks, *b)
	}
	return out
}

// retainBlock reports whether a filtered block still entails at least one
// comparison and should be kept (Alg. 1, lines 11-12, adapted to both ER
// tasks).
func retainBlock(task entity.Task, e1, e2 []entity.ID) bool {
	if task == entity.CleanClean {
		return len(e1) > 0 && len(e2) > 0
	}
	return len(e1) > 1
}
