package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call: nothing inside the program is instrumented. Parent is the index
// of the span that caused it (-1 for a root); spans of one operation
// share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps the spans of one traced pass in memory. It is shared by
// the harness goroutines that call into the program and by the goroutines
// the program runs the timing decorators on, hence the lock; current is
// the span under which decorated calls made meanwhile are filed.
type recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	on      atomic.Bool
	current atomic.Int64
	currOp  atomic.Int64

	// Counts the backend decorators keep beside their spans: neighbours
	// Gather handed back to the coordinator while recording was on, and
	// commits since the last seal rotated the logs (the live logs hold
	// exactly those).
	gathered  atomic.Int64
	sinceSeal atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.current.Store(-1)
	return r
}

// begin opens a span and returns its index, or -1 while recording is off
// (preload and warm-up pass through the same decorators unrecorded).
func (r *recorder) begin(name string, parent, op int) int {
	if !r.on.Load() {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// root opens a root span for operation op and makes it the current one.
func (r *recorder) root(name string, op int) int {
	id := r.begin(name, -1, op)
	r.current.Store(int64(id))
	r.currOp.Store(int64(op))
	return id
}

// child opens a span under the current root, from whatever goroutine the
// program runs the decorated call on.
func (r *recorder) child(name string) int {
	return r.begin(name, int(r.current.Load()), int(r.currOp.Load()))
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children that overlap each other
// (parallel shard gathers) are counted once, and a child that outlives
// its parent is clipped to it.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// durationsUS returns the durations in µs of the spans with the given name.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// perOpUS sums, per operation, the µs of the spans with any of the given
// names: a stream's handler time is the sum over its requests, its index
// time the resolve plus every resume.
func perOpUS(spans []span, names ...string) []float64 {
	byOp := map[int]float64{}
	for _, s := range spans {
		if slices.Contains(names, s.Name) {
			byOp[s.Op] += float64(s.dur()) / 1e3
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		out = append(out, v)
	}
	return out
}

// writeSpans appends the pass's spans to path as JSON lines.
func writeSpans(path, pass string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Pass string `json:"pass"`
			span
		}{pass, s}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
