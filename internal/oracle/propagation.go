package oracle

import (
	"metablocking/internal/block"
	"metablocking/internal/entity"
)

// PropagateLeCoBI is ref [21]'s Comparison Propagation as the paper
// describes it (§2): blocks are enumerated in their processing order, the
// Entity Index is built, and a comparison inside block b is executed only
// if b's ID is the least common block ID of the two profiles (the LeCoBI
// condition). It returns the distinct comparisons in block processing
// order: a reference and ablation row for blockproc.ComparisonPropagation.
func PropagateLeCoBI(c *block.Collection) []entity.Pair {
	idx := block.NewEntityIndex(c)
	var out []entity.Pair
	c.ForEachComparison(func(blockID int, a, b entity.ID) bool {
		if idx.IsNonRedundant(int32(blockID), a, b) {
			out = append(out, entity.MakePair(a, b))
		}
		return true
	})
	return out
}

// PropagateDirect removes redundant comparisons with a central hash of
// executed comparisons — the small-scale strategy the paper mentions (§2),
// and the second reference for blockproc.ComparisonPropagation.
func PropagateDirect(c *block.Collection) []entity.Pair {
	seen := make(map[entity.Pair]struct{})
	var out []entity.Pair
	c.ForEachComparison(func(_ int, a, b entity.ID) bool {
		p := entity.MakePair(a, b)
		if _, ok := seen[p]; !ok {
			seen[p] = struct{}{}
			out = append(out, p)
		}
		return true
	})
	return out
}
