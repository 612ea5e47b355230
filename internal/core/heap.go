package core

import "metablocking/internal/entity"

// weightedEdge is an edge candidate kept by a bounded top-K selection.
type weightedEdge struct {
	w    float64
	i, j entity.ID
}

// edgeHeap is a bounded min-heap over edge weights: offering more than cap
// edges evicts the lightest, leaving the top-cap weighted edges. It is the
// global top-K store of CEP and, as the "sorted stack" of Algorithm 4, ranks
// one neighborhood at a time for the CNP family, whose per-node criterion is
// its root (see thresholdOf).
type edgeHeap struct {
	items []weightedEdge
	cap   int
}

func newEdgeHeap(capacity int) *edgeHeap {
	return &edgeHeap{items: make([]weightedEdge, 0, capacity), cap: capacity}
}

func (h *edgeHeap) len() int { return len(h.items) }

func (h *edgeHeap) reset() { h.items = h.items[:0] }

// beats is the canonical total order on edges: heavier wins; ties break on
// the lexicographically smaller canonical pair. Top-K selection under a
// total order is independent of traversal order, so CEP and CNP return the
// same sets whichever edge-weighting implementation enumerated the edges.
// Among the edges of one node the order is (weight descending, neighbor
// ascending), which is what lets a nodeThreshold stand for the whole heap.
func (e weightedEdge) beats(o weightedEdge) bool {
	if e.w != o.w {
		return e.w > o.w
	}
	a, b := e.canonical(), o.canonical()
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

func (e weightedEdge) canonical() entity.Pair { return entity.MakePair(e.i, e.j) }

// offer inserts the edge if the heap is not full, or replaces the current
// minimum when the new edge beats it under the canonical total order.
func (h *edgeHeap) offer(w float64, i, j entity.ID) {
	e := weightedEdge{w: w, i: i, j: j}
	if len(h.items) < h.cap {
		h.items = append(h.items, e)
		h.up(len(h.items) - 1)
		return
	}
	if h.cap == 0 || !e.beats(h.items[0]) {
		return
	}
	h.items[0] = e
	h.down(0)
}

func (h *edgeHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[parent].beats(h.items[i]) {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *edgeHeap) down(i int) {
	n := len(h.items)
	for {
		left, right := 2*i+1, 2*i+2
		weakest := i
		if left < n && h.items[weakest].beats(h.items[left]) {
			weakest = left
		}
		if right < n && h.items[weakest].beats(h.items[right]) {
			weakest = right
		}
		if weakest == i {
			return
		}
		h.items[i], h.items[weakest] = h.items[weakest], h.items[i]
		i = weakest
	}
}
