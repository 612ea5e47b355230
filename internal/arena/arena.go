// Package arena provides slab allocation and pooled scratch buffers for the
// pipeline's hot paths. Two tools, two lifetimes:
//
//   - Arena[T]: a bump allocator carving many small slices out of large
//     slabs. One lifetime for everything it hands out — the owner resets
//     (not frees) the whole arena between passes. Use it where a pass makes
//     thousands of short slices that all die together (per-key member
//     lists, per-block scratch).
//   - Pool[T]: a sync.Pool of reusable []T scratch buffers for per-worker /
//     per-batch state. Get hands back a zero-length slice with whatever
//     capacity the buffer grew to on previous passes; Put recycles it.
//
// Ownership rule: slices returned by Arena.Alloc are valid until the next
// Reset and must not be retained past it; slices from Pool.Get are owned by
// the caller until Put and must not be used after. Neither is safe for
// concurrent use of a single instance — give each worker its own, which is
// exactly what the pool makes cheap.
package arena

import "sync"

// slabSize is the number of elements per slab. Big enough that slab
// boundaries are rare, small enough that a mostly-unused trailing slab
// doesn't hurt.
const slabSize = 8192

// Arena is a slab-backed bump allocator for []T. The zero value is ready
// to use.
type Arena[T any] struct {
	slabs [][]T
	cur   []T // active slab, sliced to its used length
}

// Alloc returns a zero-value-filled slice of length n carved from the
// current slab. Allocations larger than the slab size get a dedicated slab.
func (a *Arena[T]) Alloc(n int) []T {
	if n > slabSize {
		s := make([]T, n)
		// Park the oversized slab as fully used so Reset keeps reusing the
		// regular current slab.
		a.slabs = append(a.slabs, s)
		return s
	}
	if cap(a.cur)-len(a.cur) < n {
		a.cur = make([]T, 0, slabSize)
		a.slabs = append(a.slabs, a.cur)
	}
	at := len(a.cur)
	a.cur = a.cur[:at+n]
	// Cap the returned slice at its own end so appends by the caller cannot
	// grow into a neighbour's allocation.
	return a.cur[at : at+n : at+n]
}

// Reset makes the arena empty while keeping one slab for reuse. Previously
// returned slices become invalid: they may be handed out again, zeroed.
func (a *Arena[T]) Reset() {
	var keep []T
	for _, s := range a.slabs {
		if cap(s) == slabSize {
			keep = s[:0]
			break
		}
	}
	a.slabs = a.slabs[:0]
	a.cur = nil
	if keep != nil {
		clear(keep[:cap(keep)])
		a.cur = keep
		a.slabs = append(a.slabs, keep)
	}
}

// Buf is a pooled scratch buffer. Callers append to S (re-slicing it as
// they would any slice) and hand the whole Buf back with Pool.Put; the
// pointer indirection is what keeps Get/Put free of boxing allocations.
type Buf[T any] struct {
	S []T
}

// Pool hands out reusable scratch buffers. The zero value is ready to use
// and safe for concurrent Get/Put. Steady state allocates nothing: the
// same *Buf cycles between Get and Put with its capacity intact.
type Pool[T any] struct {
	p sync.Pool
}

// Get returns a buffer with S reset to zero length, reusing the capacity
// it grew to on previous passes.
func (p *Pool[T]) Get() *Buf[T] {
	if v := p.p.Get(); v != nil {
		b := v.(*Buf[T])
		b.S = b.S[:0]
		return b
	}
	return &Buf[T]{}
}

// GetCap is Get but guarantees cap(S) of at least n.
func (p *Pool[T]) GetCap(n int) *Buf[T] {
	b := p.Get()
	if cap(b.S) < n {
		b.S = make([]T, 0, n)
	}
	return b
}

// Put recycles b for a future Get. Putting nil is a no-op. The caller must
// not touch b or b.S afterwards.
func (p *Pool[T]) Put(b *Buf[T]) {
	if b != nil {
		p.p.Put(b)
	}
}

// PutAfter hands b back once commit has run: it returns commit wrapped to
// Put b after it, or puts b at once and returns nil when commit is nil — the
// recycling of a buffer lent to an ordered sink (par.Ordered) until its
// commit.
func (p *Pool[T]) PutAfter(b *Buf[T], commit func() error) func() error {
	if commit == nil {
		p.Put(b)
		return nil
	}
	return func() error {
		err := commit()
		p.Put(b)
		return err
	}
}
