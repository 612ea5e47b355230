package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"metablocking/internal/dataio"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
)

// served is one operation the program acknowledged, as the oracle needs
// it: the request body, and either a plain reply's candidates or a
// followed stream's hops.
type served struct {
	body       []byte
	id         int
	candidates []candidate
	hops       []streamHop
}

// servedOf turns a closed-loop result into the oracle's input, decoding a
// plain reply now that the clock is off.
func servedOf(body []byte, r opResult) (served, error) {
	if r.err != nil {
		return served{}, r.err
	}
	if r.hops != nil {
		return served{body: body, id: r.hops[0].id, hops: r.hops}, nil
	}
	var reply resolveReply
	if err := json.Unmarshal(r.raw, &reply); err != nil {
		return served{}, fmt.Errorf("decoding reply: %w", err)
	}
	if reply.Degraded {
		return served{}, fmt.Errorf("resolve %d served degraded", reply.ID)
	}
	return served{body: body, id: reply.ID, candidates: reply.Candidates}, nil
}

// resumeWindow bounds how many commits by the other caller the oracle
// lets pass between a stream's write and any of its later requests. A
// resume re-gathers against the live index, so its answer depends on how
// many profiles had been committed by then. Any state from the previous
// request's onward is a legal one to answer from, so the bound is not a
// judgement: it only keeps the oracle's work linear when a server answers
// everything wrongly. Normally a stream is matched within a handful of
// commits; but a caller that the host stalls for some tens of
// milliseconds while the other keeps going falls dozens behind (a bound
// of 16 failed one stream in 24 000 that way).
const resumeWindow = 512

// verify replays every acknowledged operation, in the order of the IDs
// the program assigned, through a single-index incremental.Resolver
// restored from the same preload artifact, and returns how many
// operations the program answered differently (IDs and weights compared
// bit-for-bit) with a description of the first few. IDs must continue the
// preload densely: a gap or a repeat is a lost or doubled write.
//
// A stream's first request is its write and is compared like a plain
// resolve, page by page. Each later request is compared with
// PeekExcluding at the earliest index size, from the previous request's
// onward, at which the oracle reproduces it exactly.
func verify(snap *incremental.Snapshot, ops []served) (wrong int, notes []string) {
	note := func(format string, args ...any) {
		wrong++
		if len(notes) < 5 {
			notes = append(notes, fmt.Sprintf(format, args...))
		}
	}
	oracle, err := incremental.FromSnapshot(snap)
	if err != nil {
		return len(ops), []string{fmt.Sprintf("restoring the oracle: %v", err)}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].id < ops[j].id })

	// pending are streams whose later requests still await a match.
	type pendingStream struct {
		op      *served
		profile entity.Profile
		next    int // index of the first unmatched hop
	}
	var pending []*pendingStream
	// The furthest behind its own write that any request was answered
	// from: said in a note when it is far, because it means a caller
	// stood still for a while, which the latencies of that round felt too.
	maxLag, laggard := 0, -1
	// settle matches pending hops against the oracle at its current size.
	settle := func(final bool) {
		kept := pending[:0]
		for _, ps := range pending {
			for ps.next < len(ps.op.hops) {
				full, err := oracle.PeekExcluding(ps.profile, entity.ID(ps.op.id))
				if err != nil {
					break
				}
				prev := ps.op.hops[ps.next-1].batch
				last := prev[len(prev)-1]
				if !sameCandidates(ps.op.hops[ps.next].batch, page(skipAfter(full, last))) {
					break
				}
				ps.next++
				if lag := oracle.Size() - 1 - ps.op.id; lag > maxLag {
					maxLag, laggard = lag, ps.op.id
				}
			}
			switch {
			case ps.next == len(ps.op.hops):
			case final || oracle.Size() > ps.op.id+resumeWindow:
				note("stream %d: request %d of %d matches no index state within %d commits",
					ps.op.id, ps.next+1, len(ps.op.hops), resumeWindow)
			default:
				kept = append(kept, ps)
			}
		}
		pending = kept
	}

	for i := range ops {
		op := &ops[i]
		if op.id != oracle.Size() {
			note("operation assigned ID %d where %d was next", op.id, oracle.Size())
			if op.id < oracle.Size() {
				continue // a repeated ID cannot be replayed
			}
			return wrong + len(ops) - i - 1, notes // a gap invalidates every later state
		}
		settle(false)
		if wrong > 100 {
			// A server this wrong needs no finer count, and every stream
			// it got wrong costs the oracle a whole window of re-gathers.
			return wrong + len(ops) - i, notes
		}
		p, err := dataio.ParseProfileJSON(op.body)
		if err != nil {
			note("operation %d: %v", op.id, err)
			continue
		}
		res, _ := oracle.Resolve(p) // a single index cannot fail
		if op.hops == nil {
			if !sameCandidates(op.candidates, res.Candidates) {
				note("resolve %d: %d candidates differ from the oracle's %d", op.id, len(op.candidates), len(res.Candidates))
			}
			continue
		}
		if msg := checkStreamShape(op.hops); msg != "" {
			note("stream %d: %s", op.id, msg)
			continue
		}
		if !sameCandidates(op.hops[0].batch, page(res.Candidates)) {
			note("stream %d: first page differs from the oracle's", op.id)
			continue
		}
		if len(op.hops) > 1 {
			pending = append(pending, &pendingStream{op: op, profile: p, next: 1})
		}
	}
	settle(true)
	if maxLag > 16 {
		notes = append(notes, fmt.Sprintf("stream %d was resumed %d commits after its write: its caller stalled while the other kept going", laggard, maxLag))
	}
	return wrong, notes
}

// checkStreamShape checks what must hold of a followed stream whatever
// the index state: every request but the last delivers a full page and a
// cursor, the last ends in done, resumed requests name the stream's own
// ID, and the terminal frame's running total equals what was delivered.
func checkStreamShape(hops []streamHop) string {
	total := 0
	for i, h := range hops {
		total += len(h.batch)
		last := i == len(hops)-1
		switch {
		case h.id != hops[0].id:
			return fmt.Sprintf("request %d answered for ID %d", i+1, h.id)
		case h.done != last:
			return fmt.Sprintf("request %d of %d: done=%v", i+1, len(hops), h.done)
		case !last && len(h.batch) != streamPage:
			return fmt.Sprintf("request %d delivered %d of a page of %d", i+1, len(h.batch), streamPage)
		case h.totalSeen != total:
			return fmt.Sprintf("request %d reports %d delivered, client saw %d", i+1, h.totalSeen, total)
		}
	}
	return ""
}

// page is what one request's comparison budget lets through.
func page(cs []incremental.Candidate) []incremental.Candidate {
	if len(cs) > streamPage {
		return cs[:streamPage]
	}
	return cs
}

// skipAfter is the suffix of a ranked list (weight descending, ID
// ascending) strictly after the cursor position — the harness's own
// statement of the resume contract.
func skipAfter(cs []incremental.Candidate, last candidate) []incremental.Candidate {
	i := sort.Search(len(cs), func(i int) bool {
		c := cs[i]
		return c.Weight < last.Weight || (c.Weight == last.Weight && int(c.ID) > last.ID)
	})
	return cs[i:]
}

func sameCandidates(got []candidate, want []incremental.Candidate) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		if g.ID != int(want[i].ID) || math.Float64bits(g.Weight) != math.Float64bits(want[i].Weight) {
			return false
		}
	}
	return true
}
