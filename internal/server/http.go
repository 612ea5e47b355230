package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"metablocking/internal/dataio"
	"metablocking/internal/obs"
	"metablocking/internal/shard"
	"metablocking/internal/store"
)

// maxBodyBytes bounds a request body — matches the JSONL scanner buffer
// used by the batch tools (4 MiB).
const maxBodyBytes = 1 << 22

// ResolveResponse is the JSON body of a successful /v1/resolve call.
type ResolveResponse struct {
	// ID is the arrival-order identifier the index assigned, or -1 for a
	// degraded (read-only) answer.
	ID int `json:"id"`
	// Candidates lists the pruned comparison suggestions, heaviest first.
	Candidates []CandidateJSON `json:"candidates"`
	// Degraded marks an answer served read-only from the last good index
	// while the write path's circuit breaker is open.
	Degraded bool `json:"degraded,omitempty"`
}

// CandidateJSON is one pruned candidate comparison.
type CandidateJSON struct {
	ID     int     `json:"id"`
	Weight float64 `json:"weight"`
}

// ReloadRequest is the JSON body of /v1/admin/reload.
type ReloadRequest struct {
	// Path names a resolver-snapshot artifact written by internal/store.
	Path string `json:"path"`
}

// ReloadResponse reports a completed snapshot swap.
type ReloadResponse struct {
	// Profiles is the size of the freshly loaded index.
	Profiles int `json:"profiles"`
}

// SnapshotRequest is the JSON body of /v1/admin/snapshot.
type SnapshotRequest struct {
	// Path is where the resolver-snapshot artifact is written. In disk
	// mode it may be empty: the snapshot is then a checkpoint of the
	// serving directory itself.
	Path string `json:"path"`
}

// SnapshotResponse reports a persisted snapshot.
type SnapshotResponse struct {
	// Profiles is the size of the index that was snapshotted.
	Profiles int    `json:"profiles"`
	Path     string `json:"path"`
}

// Stable machine-readable error codes of the /v1 API. Every non-2xx
// response carries one in its envelope; clients branch on the code,
// never on the message text or status phrase.
const (
	// CodeInvalidRequest (400): the request body could not be read or
	// decoded at all.
	CodeInvalidRequest = "invalid_request"
	// CodeNotFound (404): the named snapshot artifact does not exist.
	CodeNotFound = "not_found"
	// CodeTimeout (408): the per-request deadline expired or the client
	// context was canceled before the answer.
	CodeTimeout = "timeout"
	// CodeBodyTooLarge (413): the request body exceeded maxBodyBytes.
	CodeBodyTooLarge = "body_too_large"
	// CodeInvalidProfile (422): the body decoded but is not a valid
	// profile record.
	CodeInvalidProfile = "invalid_profile"
	// CodeCorruptArtifact (422): the named snapshot failed checksum or
	// payload verification; the live index was not touched.
	CodeCorruptArtifact = "corrupt_artifact"
	// CodeVersionMismatch (422): the named snapshot was written by an
	// incompatible format version.
	CodeVersionMismatch = "version_mismatch"
	// CodeSchemeMismatch (422): the snapshot's weighting scheme differs
	// from the serving scheme.
	CodeSchemeMismatch = "scheme_mismatch"
	// CodeQueueFull (429): the admission queue shed the request; the
	// envelope carries retry_after_ms.
	CodeQueueFull = "queue_full"
	// CodeShardBusy (429): a shard's admission queue shed the request;
	// the envelope carries retry_after_ms.
	CodeShardBusy = "shard_busy"
	// CodeTierBusy (429): the request's SLA tier has no admission slot
	// free; the envelope carries retry_after_ms.
	CodeTierBusy = "tier_busy"
	// CodeCursorInvalid (410): the resumption cursor failed verification —
	// bad signature (a restart rotates the key), a stale snapshot
	// generation, or a profile that no longer hashes to the cursor's. The
	// stream must be restarted from scratch.
	CodeCursorInvalid = "cursor_invalid"
	// CodeDraining (503): the server is shutting down gracefully.
	CodeDraining = "draining"
	// CodeShardDown (503): the request's home shard is marked down.
	CodeShardDown = "shard_down"
	// CodeInternal (500): an unclassified per-request failure (injected
	// fault, recovered panic, index error).
	CodeInternal = "internal"
)

// ErrorBody is the envelope's payload: a stable code, a human-readable
// message, and — on retryable statuses (408/429/503) — the advisory
// back-off.
type ErrorBody struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// ErrorResponse is the versioned JSON body of every non-2xx response:
//
//	{"error":{"code":"queue_full","message":"...","retry_after_ms":1000}}
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// writeError emits the envelope. Retryable statuses — 408 (timeout), 429
// (shed) and 503 (draining / shard down) — carry retry_after_ms and the
// legacy Retry-After header so every client backs off uniformly instead
// of special-casing 429.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	body := ErrorResponse{Error: ErrorBody{Code: code, Message: msg}}
	switch status {
	case http.StatusRequestTimeout, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		body.Error.RetryAfterMs = s.cfg.RetryAfter.Milliseconds()
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds())))
	}
	writeJSON(w, status, body)
}

// resolveErrorCode maps a Resolve error to its status and stable code.
func resolveErrorCode(err error) (int, string) {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, CodeQueueFull
	case errors.Is(err, shard.ErrShardBusy):
		return http.StatusTooManyRequests, CodeShardBusy
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, CodeDraining
	case errors.Is(err, shard.ErrShardDown):
		return http.StatusServiceUnavailable, CodeShardDown
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, CodeTimeout
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

// Handler returns the service mux:
//
//	POST /v1/resolve      — resolve one JSONL profile record
//	POST /v1/admin/reload — hot-swap the index from a snapshot file
//	POST /v1/admin/snapshot — persist the serving index to a snapshot file
//	GET  /v1/admin/status — effective config, shard gauges, breaker state
//	GET  /healthz         — liveness (always 200 while the process runs)
//	GET  /readyz          — readiness (503 once draining)
//	GET  /metrics         — the obs registry as a plain-text table
//	GET  /debug/vars      — the obs registry as expvar-style JSON
//
// Every endpoint is wrapped in obs.HTTPMetrics, so the registry carries
// per-endpoint request/error/shed/latency counters. When
// Config.RequestTimeout is set, every request's context additionally
// carries that deadline, so a stalled index pass turns into a bounded 408
// instead of a hung connection.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, name string, h http.HandlerFunc) {
		if d := s.cfg.RequestTimeout; d > 0 {
			inner := h
			h = func(w http.ResponseWriter, req *http.Request) {
				ctx, cancel := context.WithTimeout(req.Context(), d)
				defer cancel()
				inner(w, req.WithContext(ctx))
			}
		}
		mux.Handle(pattern, obs.HTTPMetrics(s.metrics, nil, name, h))
	}
	handle("POST /v1/resolve", "resolve", s.handleResolve)
	handle("POST /v1/admin/reload", "reload", s.handleReload)
	handle("POST /v1/admin/snapshot", "snapshot", s.handleSnapshot)
	handle("GET /v1/admin/status", "status", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Status())
	})
	handle("GET /healthz", "healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	handle("GET /readyz", "readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		io.WriteString(w, "ready\n")
	})
	handle("GET /metrics", "metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, s.metrics.Snapshot().Table())
	})
	handle("GET /debug/vars", "vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(s.metrics.Snapshot())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func (s *Server) handleResolve(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
			return
		}
		s.writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	p, err := dataio.ParseProfileJSON(body)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, CodeInvalidProfile, err.Error())
		return
	}
	if isStreamRequest(req) {
		s.handleResolveStream(w, req, p, start)
		return
	}
	res, err := s.Resolve(req.Context(), p)
	if err != nil {
		status, code := resolveErrorCode(err)
		s.writeError(w, status, code, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ResolveResponse{
		ID:         int(res.ID),
		Candidates: candidateJSON(res.Candidates),
		Degraded:   res.Degraded,
	})
}

func (s *Server) handleReload(w http.ResponseWriter, req *http.Request) {
	var r ReloadRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes)).Decode(&r); err != nil {
		s.writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	if r.Path == "" {
		s.writeError(w, http.StatusBadRequest, CodeInvalidRequest, "missing snapshot path")
		return
	}
	n, err := s.ReloadFile(r.Path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		s.writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
		return
	case errors.Is(err, store.ErrCorruptArtifact):
		// Verify-before-swap: the artifact failed verification, the live
		// index was never touched. 422: the request was well-formed but
		// names an unusable snapshot.
		s.writeError(w, http.StatusUnprocessableEntity, CodeCorruptArtifact, err.Error())
		return
	case errors.Is(err, store.ErrVersionMismatch):
		s.writeError(w, http.StatusUnprocessableEntity, CodeVersionMismatch, err.Error())
		return
	case errors.Is(err, ErrSchemeMismatch):
		s.writeError(w, http.StatusUnprocessableEntity, CodeSchemeMismatch, err.Error())
		return
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Profiles: n})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, req *http.Request) {
	var r SnapshotRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes)).Decode(&r); err != nil {
		s.writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	if r.Path == "" && !s.diskMode() {
		s.writeError(w, http.StatusBadRequest, CodeInvalidRequest, "missing snapshot path")
		return
	}
	n, err := s.SnapshotFile(r.Path)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	path := r.Path
	if path == "" {
		path = s.cfg.DiskDir
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{Profiles: n, Path: path})
}
