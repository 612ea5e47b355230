// Package par holds the small shared machinery of the parallel pipeline:
// worker-count resolution, deterministic range fan-out, and panic
// isolation. Every parallel stage (blocking, filtering, Entity Index
// construction, graph traversal) partitions its input into one contiguous
// range per worker, so results can be merged back in worker order without
// any cross-worker coordination. Where the ranges end changes who computes
// a result, never the result: Ranges cuts evenly, for stages whose items
// cost about the same; BalancedBounds cuts a cost prefix sum into parts of
// near-equal cost for RangesAt, for stages whose items do not (the blocking
// graph's traversals, where a node costs its neighborhood).
//
// A panic inside a worker goroutine would normally kill the whole process
// — there is no recovering another goroutine's panic. Ranges, RangesAt and
// Do therefore recover inside each worker, let every other worker drain, and
// re-panic the first captured panic as a *PanicError (stack attached) on
// the calling goroutine, where a top-level recover (Pipeline.RunContext,
// the server's flush loop) can turn it into an ordinary error.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// PanicError is a worker panic converted into an error: the recovered
// value plus the stack of the panicking goroutine. It crosses goroutine
// boundaries via re-panic on the caller, and API boundaries as an error
// (errors.As(&pe)).
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: worker panic: %v", e.Value)
}

// Recovered normalizes a recover() result into a *PanicError, capturing
// the current stack unless r already is one. It returns nil for a nil r,
// so it can be called unconditionally in a deferred recover block.
func Recovered(r any) *PanicError {
	if r == nil {
		return nil
	}
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// guard runs fn, converting a panic into the returned *PanicError.
func guard(fn func()) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = Recovered(r)
		}
	}()
	fn()
	return nil
}

// Resolve maps a Workers knob to a concrete worker count for an input of
// size n, using the convention of core.Config.Workers: 0 or 1 is one
// worker, negative uses GOMAXPROCS, positive uses that many workers.
// The result is clamped to [1, n] (with a minimum of 1 for empty inputs).
func Resolve(workers, n int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Ranges splits [0, n) into one contiguous chunk of ⌈n/workers⌉ items per
// worker and runs fn(worker, lo, hi) concurrently — RangesAt on even bounds.
// workers must already be resolved (≥ 1); workers == 1 runs fn inline with
// the full range. Trailing workers whose chunk is empty are not started, so
// fn may index per-worker result buckets with its worker argument directly.
func Ranges(workers, n int, fn func(worker, lo, hi int)) {
	if workers <= 1 || n == 0 {
		inline(0, n, fn)
		return
	}
	chunk := (n + workers - 1) / workers
	bounds := make([]int, workers+1)
	for w := range bounds {
		bounds[w] = min(w*chunk, n)
	}
	RangesAt(bounds, fn)
}

// RangesAt runs fn(part, bounds[part], bounds[part+1]) concurrently for
// every non-empty part of the ascending bounds — the fan-out for a stage
// whose items differ in cost, with bounds from BalancedBounds. An empty part
// starts no goroutine, so fn may still index per-part result buckets with
// its first argument; a single part runs inline.
//
// A panic inside fn does not kill the process: every other worker drains,
// then the first captured panic is re-raised on the calling goroutine as a
// *PanicError carrying the worker's stack.
func RangesAt(bounds []int, fn func(part, lo, hi int)) {
	if len(bounds) == 2 {
		inline(bounds[0], bounds[1], fn)
		return
	}
	var (
		wg    sync.WaitGroup
		first atomic.Pointer[PanicError]
	)
	for part := 0; part+1 < len(bounds); part++ {
		lo, hi := bounds[part], bounds[part+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(part, lo, hi int) {
			defer wg.Done()
			if pe := guard(func() { fn(part, lo, hi) }); pe != nil {
				first.CompareAndSwap(nil, pe)
			}
		}(part, lo, hi)
	}
	wg.Wait()
	if pe := first.Load(); pe != nil {
		panic(pe)
	}
}

// inline runs fn(0, lo, hi) on the calling goroutine, re-raising a panic as
// a *PanicError like the concurrent form does.
func inline(lo, hi int, fn func(part, lo, hi int)) {
	if pe := guard(func() { fn(0, lo, hi) }); pe != nil {
		panic(pe)
	}
}

// BalancedBounds cuts the items [from, to) into parts contiguous ranges of
// near-equal cost and returns their parts+1 ascending bounds for RangesAt.
// prefix[i] is the total cost of the items [0, i) (len ≥ to+1, costs ≥ 0).
// Cut k is the first index at which the running cost reaches k/parts of the
// range's total, so no part costs more than total/parts plus its most
// expensive item. An item dearer than that share leaves the parts after it
// empty, as do parts beyond the item count; when nothing in the range costs
// anything the last part takes it all.
func BalancedBounds(prefix []int64, from, to, parts int) []int {
	bounds := make([]int, parts+1)
	bounds[0], bounds[parts] = from, to
	base, total := prefix[from], prefix[to]-prefix[from]
	for k := 1; k < parts; k++ {
		target := base + total*int64(k)/int64(parts)
		lo := bounds[k-1]
		bounds[k] = lo + sort.Search(to-lo, func(i int) bool { return prefix[lo+i] >= target })
	}
	return bounds
}

// Do runs the given thunks concurrently and waits for all of them — the
// fork/join used for independent pipeline phases (e.g. sorting per-worker
// result buckets). Panics are isolated the same way as in Ranges: all
// thunks drain, then the first panic re-raises as a *PanicError on the
// caller.
func Do(fns ...func()) {
	if len(fns) == 1 {
		if pe := guard(fns[0]); pe != nil {
			panic(pe)
		}
		return
	}
	var (
		wg    sync.WaitGroup
		first atomic.Pointer[PanicError]
	)
	wg.Add(len(fns))
	for _, fn := range fns {
		go func(f func()) {
			defer wg.Done()
			if pe := guard(f); pe != nil {
				first.CompareAndSwap(nil, pe)
			}
		}(fn)
	}
	wg.Wait()
	if pe := first.Load(); pe != nil {
		panic(pe)
	}
}

// Ordered runs produce(k) for every k in [0, n) on up to workers goroutines
// and the commits they return on the calling goroutine, in ascending k: the
// fan-out of a stage whose output must leave in order (a file, a running
// count) while the work that makes each piece of it runs in parallel. A nil
// commit is skipped. At most 2·workers pieces are claimed and not yet
// committed at any time, which bounds what the pieces hold in memory.
//
// The first commit error stops new work: the workers finish the pieces they
// hold, their commits are dropped, and Ordered returns the error. A panic in
// produce stops new work the same way and comes back as a *PanicError once
// the workers have drained; a panic in a commit re-raises on the caller after
// they have. workers ≤ 1 runs every produce and commit inline, in turn.
func Ordered(workers, n int, produce func(k int) (commit func() error)) error {
	if workers <= 1 || n <= 1 {
		for k := 0; k < n; k++ {
			var commit func() error
			if pe := guard(func() { commit = produce(k) }); pe != nil {
				return pe
			}
			if commit != nil {
				if err := commit(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	workers = min(workers, n)
	window := 2 * workers
	type piece struct {
		commit func() error
		pe     *PanicError
	}
	// A worker takes a token before it claims the next k and the caller
	// returns it after committing, so the claimed range [committed, next)
	// never spans more than window pieces and k%window names a free slot.
	tokens := make(chan struct{}, window)
	slots := make([]chan piece, window)
	for i := range slots {
		tokens <- struct{}{}
		slots[i] = make(chan piece, 1)
	}
	var (
		next    atomic.Int64
		stopped atomic.Bool
		done    = make(chan struct{})
		wg      sync.WaitGroup
	)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-tokens:
				case <-done:
					return
				}
				k := int(next.Add(1) - 1)
				if k >= n || stopped.Load() {
					return
				}
				var p piece
				p.pe = guard(func() { p.commit = produce(k) })
				if p.pe != nil {
					stopped.Store(true)
				}
				slots[k%window] <- p
			}
		}()
	}
	defer func() {
		stopped.Store(true)
		close(done)
		wg.Wait()
	}()
	for k := 0; k < n; k++ {
		p := <-slots[k%window]
		if p.pe != nil {
			return p.pe
		}
		if p.commit != nil {
			if err := p.commit(); err != nil {
				return err
			}
		}
		tokens <- struct{}{}
	}
	return nil
}
