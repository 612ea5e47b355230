package main

import (
	"testing"

	"metablocking/internal/dataio"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
)

// answeredBy replays the workload's requests through a single index the
// way a correct server would answer them: plain resolves, or streams
// paged through PeekExcluding with `lag` commits by other callers landing
// between a stream's write and its resumes.
func answeredBy(t *testing.T, in *serveInputs, stream bool, lag int) []served {
	t.Helper()
	r, err := incremental.FromSnapshot(in.snapshot)
	if err != nil {
		t.Fatal(err)
	}
	// Streams are finished through pointers into ops: it must not move.
	ops := make([]served, 0, len(in.bodies))
	type open struct {
		op      *served
		profile entity.Profile
	}
	var lagging []open
	finish := func(o open) {
		for !o.op.hops[len(o.op.hops)-1].done {
			full, err := r.PeekExcluding(o.profile, entity.ID(o.op.id))
			if err != nil {
				t.Fatal(err)
			}
			prev := o.op.hops[len(o.op.hops)-1].batch
			rest := skipAfter(full, prev[len(prev)-1])
			o.op.hops = append(o.op.hops, hopOf(o.op, page(rest), len(rest) <= streamPage))
		}
	}
	for _, body := range in.bodies {
		p, err := dataio.ParseProfileJSON(body)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := r.Resolve(p)
		if !stream {
			ops = append(ops, served{body: body, id: int(res.ID), candidates: wire(res.Candidates)})
			continue
		}
		// The stream written lag commits ago resumes only now: the
		// interleaving two callers produce, one of them slower.
		if len(lagging) == lag {
			finish(lagging[0])
			lagging = lagging[1:]
		}
		ops = append(ops, served{body: body, id: int(res.ID)})
		op := &ops[len(ops)-1]
		op.hops = []streamHop{hopOf(op, page(res.Candidates), len(res.Candidates) <= streamPage)}
		lagging = append(lagging, open{op: op, profile: p})
	}
	for _, o := range lagging {
		finish(o)
	}
	return ops
}

func hopOf(op *served, batch []incremental.Candidate, done bool) streamHop {
	total := len(batch)
	for _, h := range op.hops {
		total += len(h.batch)
	}
	return streamHop{id: op.id, batch: wire(batch), done: done, totalSeen: total}
}

func wire(cs []incremental.Candidate) []candidate {
	out := make([]candidate, len(cs))
	for i, c := range cs {
		out[i] = candidate{ID: int(c.ID), Weight: c.Weight}
	}
	return out
}

func TestVerifyAcceptsCorrectAnswersAndCountsWrongOnes(t *testing.T) {
	w := smokeWorkload(t, "serve_mem_direct")
	in, err := buildServeInputs(w, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ops := answeredBy(t, in, false, 0)
	// The closed loop collects answers in request order, not ID order.
	ops[3], ops[40] = ops[40], ops[3]
	if wrong, notes := verify(in.snapshot, append([]served(nil), ops...)); wrong != 0 {
		t.Fatalf("correct answers counted %d wrong: %v", wrong, notes)
	}

	tampered := append([]served(nil), ops...)
	for i := range tampered {
		if len(tampered[i].candidates) > 0 {
			cs := append([]candidate(nil), tampered[i].candidates...)
			cs[0].Weight += 1e-12
			tampered[i].candidates = cs
			break
		}
	}
	if wrong, _ := verify(in.snapshot, tampered); wrong != 1 {
		t.Errorf("one weight off in the last bits counted %d wrong, want 1", wrong)
	}

	lost := append([]served(nil), ops[:10]...)
	lost = append(lost, ops[11:]...)
	if wrong, _ := verify(in.snapshot, lost); wrong == 0 {
		t.Error("a gap in the assigned IDs (a lost write) went unnoticed")
	}
}

func TestVerifyFollowsStreamsAcrossInterleavedCommits(t *testing.T) {
	w := smokeWorkload(t, "serve_stream_reads")
	in, err := buildServeInputs(w, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ops := answeredBy(t, in, true, 1)
	multi := -1
	for i, op := range ops {
		if len(op.hops) > 2 {
			multi = i
			break
		}
	}
	if multi < 0 {
		t.Fatal("no stream of the smoke workload takes more than two requests; the test needs one")
	}
	if wrong, notes := verify(in.snapshot, cloneOps(ops)); wrong != 0 {
		t.Fatalf("correct streams counted %d wrong: %v", wrong, notes)
	}
	// A caller the host stalled resumes dozens of commits late: still a
	// legal state to answer from, and said in a note.
	late := answeredBy(t, in, true, 40)
	if wrong, notes := verify(in.snapshot, late); wrong != 0 || len(notes) != 1 {
		t.Errorf("streams resumed 40 commits late counted %d wrong, notes %v", wrong, notes)
	}

	// A resumed page that repeats its predecessor's last candidate.
	bad := cloneOps(ops)
	h := bad[multi].hops
	h[1].batch[0] = h[0].batch[len(h[0].batch)-1]
	if wrong, _ := verify(in.snapshot, bad); wrong != 1 {
		t.Errorf("a resumed page overlapping the previous one counted %d wrong, want 1", wrong)
	}

	// A short page before the cursor.
	bad = cloneOps(ops)
	bad[multi].hops[0].batch = bad[multi].hops[0].batch[:streamPage-1]
	if wrong, _ := verify(in.snapshot, bad); wrong != 1 {
		t.Errorf("a short first page counted %d wrong, want 1", wrong)
	}
}

func cloneOps(ops []served) []served {
	out := append([]served(nil), ops...)
	for i := range out {
		out[i].hops = append([]streamHop(nil), out[i].hops...)
		for j := range out[i].hops {
			out[i].hops[j].batch = append([]candidate(nil), out[i].hops[j].batch...)
		}
	}
	return out
}
