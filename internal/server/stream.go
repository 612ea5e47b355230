// The budget-aware progressive serving path: POST /v1/resolve grows a
// streaming mode that emits ranked candidates best-first as they clear
// the weight frontier, under the request's budget contract
// (internal/budget), over either Server-Sent Events or chunked NDJSON.
//
// Routing: a request streams when its Accept header asks for
// text/event-stream or application/x-ndjson, or when it carries any
// budget parameter (budget_ms, max_comparisons, min_confidence, tier,
// cursor). Everything else takes the untouched synchronous JSON path, so
// existing clients see byte-identical responses.
//
// Frame sequence (NDJSON shown; SSE wraps the same payloads in named
// events):
//
//	{"meta":{"id":7,"tier":"interactive","generation":0}}
//	{"batch":[{"id":3,"weight":2.5},...]}          — repeated
//	{"done":{"emitted":40,"total_emitted":40}}      — completion, or
//	{"cursor":{"cursor":"...","reason":"deadline",...}} — exhaustion
//
// Exhaustion always delivers at least one batch before the cursor — a
// budgeted request never gets a bare timeout.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"metablocking/internal/budget"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
)

// streamParams are the query parameters that opt a resolve into the
// streaming path.
var streamParams = []string{"budget_ms", "max_comparisons", "min_confidence", "tier", "cursor"}

// isStreamRequest reports whether the request asked for the progressive
// path — by Accept header or by naming any budget parameter.
func isStreamRequest(req *http.Request) bool {
	accept := req.Header.Get("Accept")
	if strings.Contains(accept, "text/event-stream") || strings.Contains(accept, "application/x-ndjson") {
		return true
	}
	q := req.URL.Query()
	for _, k := range streamParams {
		if q.Has(k) {
			return true
		}
	}
	return false
}

// streamMeta is the first frame of every stream: what is being answered
// and against which snapshot generation.
type streamMeta struct {
	ID         int    `json:"id"`
	Tier       string `json:"tier"`
	Generation uint64 `json:"generation"`
	Degraded   bool   `json:"degraded,omitempty"`
	Resumed    bool   `json:"resumed,omitempty"`
}

// streamDone terminates a completed stream: every candidate the contract
// wanted was delivered, no cursor.
type streamDone struct {
	// Emitted counts comparisons this response flushed; TotalEmitted is
	// cumulative across the original stream and every resume.
	Emitted      int    `json:"emitted"`
	TotalEmitted int    `json:"total_emitted"`
	Reason       string `json:"reason,omitempty"`
}

// streamCursor terminates an exhausted stream: the budget ran out with
// candidates remaining, and the signed cursor resumes exactly after the
// last emitted pair.
type streamCursor struct {
	Cursor       string  `json:"cursor"`
	Reason       string  `json:"reason"`
	Emitted      int     `json:"emitted"`
	TotalEmitted int     `json:"total_emitted"`
	Frontier     float64 `json:"frontier"`
}

// streamFrame is the NDJSON envelope: exactly one field set per line.
type streamFrame struct {
	Meta   *streamMeta     `json:"meta,omitempty"`
	Batch  []CandidateJSON `json:"batch,omitempty"`
	Done   *streamDone     `json:"done,omitempty"`
	Cursor *streamCursor   `json:"cursor,omitempty"`
}

// streamWriter abstracts the two stream encodings. begin writes the
// response header; every other method writes and flushes one frame.
type streamWriter interface {
	begin()
	meta(streamMeta) error
	batch([]incremental.Candidate) error
	done(streamDone) error
	cursor(streamCursor) error
}

// newStreamWriter negotiates the encoding: SSE when the Accept header
// asks for text/event-stream, chunked NDJSON otherwise (including for
// budgeted requests that sent no Accept at all).
func newStreamWriter(w http.ResponseWriter, req *http.Request) streamWriter {
	f, _ := w.(http.Flusher)
	if strings.Contains(req.Header.Get("Accept"), "text/event-stream") {
		return &sseWriter{w: w, f: f}
	}
	return &ndjsonWriter{w: w, f: f}
}

// candidateJSON converts a ranked candidate slice to its wire form.
func candidateJSON(cands []incremental.Candidate) []CandidateJSON {
	out := make([]CandidateJSON, len(cands))
	for i, c := range cands {
		out[i] = CandidateJSON{ID: int(c.ID), Weight: c.Weight}
	}
	return out
}

// ndjsonWriter emits one JSON object per line, flushing each.
type ndjsonWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (nw *ndjsonWriter) begin() {
	nw.w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	nw.w.Header().Set("Cache-Control", "no-store")
	nw.w.WriteHeader(http.StatusOK)
}

func (nw *ndjsonWriter) send(fr streamFrame) error {
	b, err := json.Marshal(fr)
	if err != nil {
		return err
	}
	if _, err := nw.w.Write(append(b, '\n')); err != nil {
		return err
	}
	if nw.f != nil {
		nw.f.Flush()
	}
	return nil
}

func (nw *ndjsonWriter) meta(m streamMeta) error { return nw.send(streamFrame{Meta: &m}) }
func (nw *ndjsonWriter) batch(c []incremental.Candidate) error {
	return nw.send(streamFrame{Batch: candidateJSON(c)})
}
func (nw *ndjsonWriter) done(d streamDone) error     { return nw.send(streamFrame{Done: &d}) }
func (nw *ndjsonWriter) cursor(c streamCursor) error { return nw.send(streamFrame{Cursor: &c}) }

// sseWriter emits Server-Sent Events: "event: <name>" + JSON data.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (sw *sseWriter) begin() {
	sw.w.Header().Set("Content-Type", "text/event-stream")
	sw.w.Header().Set("Cache-Control", "no-store")
	sw.w.WriteHeader(http.StatusOK)
}

func (sw *sseWriter) send(event string, payload any) error {
	b, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(sw.w, "event: %s\ndata: %s\n\n", event, b); err != nil {
		return err
	}
	if sw.f != nil {
		sw.f.Flush()
	}
	return nil
}

func (sw *sseWriter) meta(m streamMeta) error { return sw.send("meta", m) }
func (sw *sseWriter) batch(c []incremental.Candidate) error {
	return sw.send("batch", candidateJSON(c))
}
func (sw *sseWriter) done(d streamDone) error     { return sw.send("done", d) }
func (sw *sseWriter) cursor(c streamCursor) error { return sw.send("cursor", c) }

// handleResolveStream serves the progressive path for an already-parsed
// profile. start anchors the wall-clock budget at request arrival, so
// the resolve itself spends budget.
func (s *Server) handleResolveStream(w http.ResponseWriter, req *http.Request, p entity.Profile, start time.Time) {
	q := req.URL.Query()
	contract, err := budget.ParseContract(q, s.pools.Tiers())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	release, err := s.pools.Acquire(contract.Tier)
	if err != nil {
		if errors.Is(err, budget.ErrTierSaturated) {
			s.metrics.Counter(budget.CtrTierShed).Inc()
			s.writeError(w, http.StatusTooManyRequests, CodeTierBusy, err.Error())
			return
		}
		s.writeError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	defer release()

	// Pin the generation BEFORE the gather: if a reload lands while the
	// request is in flight, any cursor issued here carries the superseded
	// generation and is refused on resume — conservative, never wrong.
	gen := s.generation.Load()
	hash := budget.ProfileHash(p)

	var (
		res     Resolution
		resumed bool
		prior   budget.Cursor
	)
	if token := q.Get("cursor"); token != "" {
		cur, verr := s.signer.Verify(token)
		if verr == nil && cur.Generation != gen {
			verr = fmt.Errorf("%w: superseded snapshot generation", budget.ErrCursorInvalid)
		}
		if verr == nil && cur.Profile != hash {
			verr = fmt.Errorf("%w: profile does not match the cursor's", budget.ErrCursorInvalid)
		}
		if verr != nil {
			s.metrics.Counter(budget.CtrCursorInvalid).Inc()
			s.writeError(w, http.StatusGone, CodeCursorInvalid, verr.Error())
			return
		}
		res, err = s.Resume(req.Context(), p, cur.ID)
		if err == nil && s.generation.Load() != cur.Generation {
			// A reload/checkpoint raced the re-gather: the candidates came
			// from an index the cursor was not cut against.
			err = fmt.Errorf("%w: superseded snapshot generation", budget.ErrCursorInvalid)
		}
		if errors.Is(err, budget.ErrCursorInvalid) {
			s.metrics.Counter(budget.CtrCursorInvalid).Inc()
			s.writeError(w, http.StatusGone, CodeCursorInvalid, err.Error())
			return
		}
		if err != nil {
			status, code := resolveErrorCode(err)
			s.writeError(w, status, code, err.Error())
			return
		}
		s.metrics.Counter(budget.CtrCursorResumes).Inc()
		resumed, prior = true, cur
	} else {
		res, err = s.Resolve(req.Context(), p)
		if err != nil {
			status, code := resolveErrorCode(err)
			s.writeError(w, status, code, err.Error())
			return
		}
	}

	cands := res.Candidates
	if resumed {
		// Continue strictly after the cursor position in the emission
		// order; the re-gather reproduced the original ranked stream.
		cands = budget.SkipAfter(cands, prior.LastWeight, prior.LastID)
	}
	if res.Degraded {
		// Breaker open: the zero-budget tier. One read-only batch,
		// cursor-less — a degraded index cannot promise a resumable
		// frontier.
		if len(cands) > s.cfg.StreamBatch {
			cands = cands[:s.cfg.StreamBatch]
		}
		contract = budget.Contract{Tier: contract.Tier}
	}

	sw := newStreamWriter(w, req)
	sw.begin()
	s.metrics.Counter(budget.CtrStreams).Inc()
	if err := sw.meta(streamMeta{
		ID:         int(res.ID),
		Tier:       contract.Tier,
		Generation: gen,
		Degraded:   res.Degraded,
		Resumed:    resumed,
	}); err != nil {
		return
	}

	em := budget.Emitter{Batch: s.cfg.StreamBatch}
	out, err := em.Emit(cands, contract, start, func(b []incremental.Candidate) error {
		if ferr := s.cfg.fault.Check(FaultStream); ferr != nil {
			return ferr
		}
		return sw.batch(b)
	})
	s.metrics.Counter(budget.CtrComparisons).Add(int64(out.Emitted))
	if err != nil {
		// Mid-stream abort: the client vanished or the injected stream
		// fault fired. The response is already half-written; nothing
		// coherent can follow.
		s.metrics.Text(TextLastError).Set(err.Error())
		return
	}
	total := out.Emitted
	if resumed {
		total += prior.Emitted
	}
	switch {
	case res.Degraded:
		s.metrics.Counter(budget.CtrPartialResults).Inc()
		sw.done(streamDone{Emitted: out.Emitted, TotalEmitted: total, Reason: budget.ReasonDegraded})
	case out.Exhausted:
		s.metrics.Counter(budget.CtrExhausted).Inc()
		s.metrics.Counter(budget.CtrPartialResults).Inc()
		token := s.signer.Sign(budget.Cursor{
			Generation: gen,
			ID:         res.ID,
			Profile:    hash,
			Emitted:    total,
			LastWeight: out.Last.Weight,
			LastID:     out.Last.ID,
			Frontier:   out.Frontier,
		})
		sw.cursor(streamCursor{
			Cursor:       token,
			Reason:       out.Reason,
			Emitted:      out.Emitted,
			TotalEmitted: total,
			Frontier:     out.Frontier,
		})
	default:
		sw.done(streamDone{Emitted: out.Emitted, TotalEmitted: total, Reason: out.Reason})
	}
}
