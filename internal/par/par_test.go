package par

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolve(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{0, 10, 1}, // serial knob
		{1, 10, 1}, // explicit serial
		{4, 10, 4}, // plain
		{8, 3, 3},  // clamped to n
		{4, 0, 1},  // empty input
		{-1, 1, 1}, // GOMAXPROCS clamped to n
	}
	for _, c := range cases {
		if got := Resolve(c.workers, c.n); got != c.want {
			t.Errorf("Resolve(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

func TestRangesCoversInput(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		var covered atomic.Int64
		Ranges(workers, 100, func(_, lo, hi int) {
			covered.Add(int64(hi - lo))
		})
		if covered.Load() != 100 {
			t.Fatalf("workers=%d covered %d of 100", workers, covered.Load())
		}
	}
}

// TestRangesPanicIsolation: a panicking worker must not kill the process;
// the remaining workers drain and the caller receives one *PanicError with
// the worker's stack attached.
func TestRangesPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var pe *PanicError
		var drained atomic.Int64
		func() {
			defer func() {
				if r := recover(); r != nil {
					var ok bool
					if pe, ok = r.(*PanicError); !ok {
						t.Fatalf("workers=%d: recovered %T, want *PanicError", workers, r)
					}
				}
			}()
			Ranges(workers, workers, func(w, lo, hi int) {
				if w == 0 {
					panic("boom")
				}
				drained.Add(1)
			})
			t.Fatalf("workers=%d: no panic propagated", workers)
		}()
		if pe == nil || pe.Value != "boom" {
			t.Fatalf("workers=%d: PanicError = %+v", workers, pe)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
			t.Fatalf("workers=%d: no stack captured", workers)
		}
		if want := int64(workers - 1); drained.Load() != want {
			t.Fatalf("workers=%d: %d other workers drained, want %d", workers, drained.Load(), want)
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Fatalf("Error() = %q", pe.Error())
		}
	}
}

// TestDoPanicIsolation mirrors the Ranges contract for the fork/join form.
func TestDoPanicIsolation(t *testing.T) {
	for _, thunks := range []int{1, 3} {
		var pe *PanicError
		var drained atomic.Int64
		fns := make([]func(), thunks)
		fns[0] = func() { panic(errors.New("kapow")) }
		for i := 1; i < thunks; i++ {
			fns[i] = func() { drained.Add(1) }
		}
		func() {
			defer func() { pe = Recovered(recover()) }()
			Do(fns...)
			t.Fatalf("thunks=%d: no panic propagated", thunks)
		}()
		if pe == nil {
			t.Fatalf("thunks=%d: nil PanicError", thunks)
		}
		if err, ok := pe.Value.(error); !ok || err.Error() != "kapow" {
			t.Fatalf("thunks=%d: Value = %v", thunks, pe.Value)
		}
		if drained.Load() != int64(thunks-1) {
			t.Fatalf("thunks=%d: %d drained", thunks, drained.Load())
		}
	}
}

// TestRecoveredIdempotent: re-panicked PanicErrors keep the original stack
// instead of being wrapped again.
func TestRecoveredIdempotent(t *testing.T) {
	if Recovered(nil) != nil {
		t.Fatal("Recovered(nil) != nil")
	}
	orig := &PanicError{Value: "x", Stack: []byte("original stack")}
	if got := Recovered(orig); got != orig {
		t.Fatal("Recovered rewrapped a PanicError")
	}
	// Nested fan-out: a panic crossing two Ranges layers surfaces once.
	var pe *PanicError
	func() {
		defer func() { pe = Recovered(recover()) }()
		Ranges(2, 2, func(w, lo, hi int) {
			Ranges(2, 2, func(w2, lo2, hi2 int) {
				if w == 0 && w2 == 0 {
					panic("deep")
				}
			})
		})
	}()
	if pe == nil || pe.Value != "deep" {
		t.Fatalf("nested panic = %+v", pe)
	}
}

// prefixOf returns the prefix sums BalancedBounds takes.
func prefixOf(costs []int64) []int64 {
	prefix := make([]int64, len(costs)+1)
	for i, c := range costs {
		prefix[i+1] = prefix[i] + c
	}
	return prefix
}

// TestBalancedBounds: the bounds ascend from from to to — so the parts cover
// the range exactly once — and no part costs more than its share plus the
// dearest single item, whatever the skew.
func TestBalancedBounds(t *testing.T) {
	ramp := make([]int64, 100)
	for i := range ramp {
		ramp[i] = int64(i)
	}
	terseThenVerbose := make([]int64, 60)
	for i := range terseThenVerbose {
		terseThenVerbose[i] = 7
		if i >= 27 {
			terseThenVerbose[i] = 70
		}
	}
	mega := []int64{3, 1, 4, 1, 5, 1000, 9, 2, 6, 5, 3, 5}
	cases := []struct {
		name     string
		costs    []int64
		from, to int
		parts    int
		want     []int // nil: check the invariants only
	}{
		{name: "uniform", costs: []int64{1, 1, 1, 1, 1, 1, 1, 1}, to: 8, parts: 4, want: []int{0, 2, 4, 6, 8}},
		{name: "one part", costs: ramp, to: 100, parts: 1, want: []int{0, 100}},
		{name: "ramp", costs: ramp, to: 100, parts: 3},
		{name: "sub-range", costs: ramp, from: 40, to: 90, parts: 4},
		{name: "terse then verbose", costs: terseThenVerbose, to: 60, parts: 2},
		// Item 5 outweighs three shares: it closes part 0, and parts 1 and 2
		// — whose targets it already passed — are empty.
		{name: "mega item", costs: mega, to: 12, parts: 4, want: []int{0, 6, 6, 6, 12}},
		{name: "mega item first", costs: []int64{1000, 1, 1, 1}, to: 4, parts: 2, want: []int{0, 1, 4}},
		{name: "mega item last", costs: []int64{1, 1, 1, 1000}, to: 4, parts: 2, want: []int{0, 4, 4}},
		// Entities in no block cost nothing: the last part takes them all.
		{name: "all zero", costs: make([]int64, 9), to: 9, parts: 3, want: []int{0, 0, 0, 9}},
		{name: "zero runs", costs: []int64{0, 0, 5, 0, 0, 5, 0, 0}, to: 8, parts: 2, want: []int{0, 3, 8}},
		{name: "more parts than items", costs: []int64{2, 2, 2}, to: 3, parts: 7},
		{name: "empty range", costs: ramp, from: 50, to: 50, parts: 3, want: []int{50, 50, 50, 50}},
	}
	for _, c := range cases {
		prefix := prefixOf(c.costs)
		got := BalancedBounds(prefix, c.from, c.to, c.parts)
		if c.want != nil && !slices.Equal(got, c.want) {
			t.Errorf("%s: bounds %v, want %v", c.name, got, c.want)
		}
		if len(got) != c.parts+1 || got[0] != c.from || got[c.parts] != c.to || !slices.IsSorted(got) {
			t.Errorf("%s: bounds %v do not cut [%d, %d) into %d ascending parts", c.name, got, c.from, c.to, c.parts)
			continue
		}
		total, dearest := prefix[c.to]-prefix[c.from], int64(0)
		for _, cost := range c.costs[c.from:c.to] {
			dearest = max(dearest, cost)
		}
		for p := 0; p < c.parts; p++ {
			if cost := prefix[got[p+1]] - prefix[got[p]]; cost > total/int64(c.parts)+dearest {
				t.Errorf("%s: part %d [%d, %d) costs %d of %d, more than a share of %d parts plus the dearest item %d",
					c.name, p, got[p], got[p+1], cost, total, c.parts, dearest)
			}
		}
	}
}

// TestRangesAt: every non-empty part runs once with its own index, an empty
// part starts nothing, and a single part runs on the calling goroutine.
func TestRangesAt(t *testing.T) {
	var mu sync.Mutex
	got := map[int][2]int{}
	RangesAt([]int{3, 3, 10, 10, 10, 12, 12}, func(part, lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := got[part]; dup {
			t.Errorf("part %d ran twice", part)
		}
		got[part] = [2]int{lo, hi}
	})
	if want := map[int][2]int{1: {3, 10}, 4: {10, 12}}; !reflect.DeepEqual(got, want) {
		t.Errorf("parts run: %v, want %v", got, want)
	}

	inline := false
	func() {
		defer func() {
			// A panic on the calling goroutine unwinds through this frame.
			inline = recover() != nil
		}()
		RangesAt([]int{0, 5}, func(part, lo, hi int) { panic("on the caller's stack") })
	}()
	if !inline {
		t.Error("a single part did not run inline")
	}
}

// TestRangesEvenSplit pins the chunks Ranges has always handed the blocking,
// filtering and Entity Index stages: ⌈n/workers⌉ items each, trailing
// workers idle.
func TestRangesEvenSplit(t *testing.T) {
	for _, c := range []struct {
		workers, n int
		want       map[int][2]int
	}{
		{workers: 3, n: 10, want: map[int][2]int{0: {0, 4}, 1: {4, 8}, 2: {8, 10}}},
		{workers: 4, n: 9, want: map[int][2]int{0: {0, 3}, 1: {3, 6}, 2: {6, 9}}},
		{workers: 4, n: 2, want: map[int][2]int{0: {0, 1}, 1: {1, 2}}},
		{workers: 1, n: 5, want: map[int][2]int{0: {0, 5}}},
		{workers: 3, n: 0, want: map[int][2]int{0: {0, 0}}},
	} {
		var mu sync.Mutex
		got := map[int][2]int{}
		Ranges(c.workers, c.n, func(w, lo, hi int) {
			mu.Lock()
			got[w] = [2]int{lo, hi}
			mu.Unlock()
		})
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Ranges(%d, %d): chunks %v, want %v", c.workers, c.n, got, c.want)
		}
	}
}

// TestOrderedCommitsInOrder: every piece is produced once and committed once,
// on the calling goroutine, in ascending k — inline and concurrent alike.
func TestOrderedCommitsInOrder(t *testing.T) {
	const n = 50
	for _, workers := range []int{0, 1, 3, n + 1} {
		var produced [n]atomic.Int32
		var committed []int
		err := Ordered(workers, n, func(k int) func() error {
			produced[k].Add(1)
			if k%7 == 3 {
				return nil // a nil commit is skipped
			}
			return func() error {
				committed = append(committed, k) // unsynchronized: the caller's goroutine only
				return nil
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var want []int
		for k := 0; k < n; k++ {
			if got := produced[k].Load(); got != 1 {
				t.Fatalf("workers=%d: piece %d produced %d times", workers, k, got)
			}
			if k%7 != 3 {
				want = append(want, k)
			}
		}
		if !slices.Equal(committed, want) {
			t.Fatalf("workers=%d: committed %v, want %v", workers, committed, want)
		}
	}
	if err := Ordered(3, 0, func(int) func() error { panic("no pieces") }); err != nil {
		t.Fatalf("empty input: %v", err)
	}
}

// TestOrderedBoundsOutstanding: with a slow caller, no more than 2·workers
// pieces are ever produced and not yet committed.
func TestOrderedBoundsOutstanding(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		var outstanding, peak atomic.Int64
		err := Ordered(workers, 60, func(k int) func() error {
			if now := outstanding.Add(1); now > peak.Load() {
				peak.Store(now) // a racing store can only lower the peak seen
			}
			return func() error {
				time.Sleep(200 * time.Microsecond)
				outstanding.Add(-1)
				return nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if limit := int64(max(2*workers, 1)); peak.Load() > limit {
			t.Fatalf("workers=%d: %d pieces outstanding, want at most %d", workers, peak.Load(), limit)
		}
		if workers > 1 && peak.Load() < 2 {
			t.Fatalf("workers=%d: at most %d piece outstanding: nothing ran ahead of the commits", workers, peak.Load())
		}
	}
}

// TestOrderedStopsOnError: the first commit error is returned, no later
// commit runs, and the workers stop claiming pieces.
func TestOrderedStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	const n, failAt = 1000, 5
	for _, workers := range []int{0, 1, 3} {
		var produced atomic.Int64
		var last int
		err := Ordered(workers, n, func(k int) func() error {
			produced.Add(1)
			return func() error {
				last = k
				if k == failAt {
					return boom
				}
				return nil
			}
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if last != failAt {
			t.Fatalf("workers=%d: last commit %d, want %d", workers, last, failAt)
		}
		if limit := int64(failAt + 1 + 2*max(workers, 1)); produced.Load() > limit {
			t.Fatalf("workers=%d: %d pieces produced after an error at %d, want at most %d", workers, produced.Load(), failAt, limit)
		}
	}
}

// TestOrderedPanicBecomesError: a panic in produce comes back as a
// *PanicError once the workers drained, after the commits before it ran; a
// panic in a commit re-raises on the caller.
func TestOrderedPanicBecomesError(t *testing.T) {
	const n, panicAt = 40, 9
	for _, workers := range []int{0, 1, 3, n + 1} {
		var running atomic.Int64
		var committed int
		err := Ordered(workers, n, func(k int) func() error {
			running.Add(1)
			defer running.Add(-1)
			if k == panicAt {
				panic("produce bug")
			}
			return func() error { committed++; return nil }
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "produce bug" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: err = %v, want a *PanicError with a stack", workers, err)
		}
		if committed != panicAt {
			t.Fatalf("workers=%d: %d commits before the panic, want %d", workers, committed, panicAt)
		}
		if running.Load() != 0 {
			t.Fatalf("workers=%d: %d producers still running after Ordered returned", workers, running.Load())
		}
	}
	func() {
		defer func() {
			if r := recover(); r != "commit bug" {
				t.Fatalf("recovered %v, want the commit's panic", r)
			}
		}()
		Ordered(3, 10, func(k int) func() error {
			return func() error { panic("commit bug") }
		})
		t.Fatal("no panic from the commit")
	}()
}
