package obs

import (
	"net/http"
	"time"
)

// HTTP middleware counter suffixes. Each instrumented endpoint name yields
//
//	http.<name>.requests   — completed requests
//	http.<name>.errors     — responses with status ≥ 500
//	http.<name>.rejected   — responses with status 429 (load shedding)
//	http.<name>.latency_ns — summed wall-clock handler time; divide by
//	                         requests for the mean latency, sample over an
//	                         interval for QPS
//
// in the shared registry. Counter semantics match the pipeline's: atomic,
// cheap, and safe to scrape live from /metrics or /debug/vars.
const (
	ctrHTTPRequests = ".requests"
	ctrHTTPErrors   = ".errors"
	ctrHTTPRejected = ".rejected"
	ctrHTTPLatency  = ".latency_ns"
)

// statusRecorder captures the response status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streaming handlers (SSE,
// NDJSON) can push frames through the instrumentation. A non-flushing
// underlying writer is a no-op.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// HTTPMetrics wraps a handler with per-endpoint instrumentation under the
// "http.<name>." counter prefix and brackets each request in a span (the
// same start/end hooks pipeline stages use, when o carries any). A nil
// registry or Observer degrades to pass-through with no overhead beyond
// the status recorder.
func HTTPMetrics(m *Metrics, o *Observer, name string, h http.Handler) http.Handler {
	requests := m.Counter("http." + name + ctrHTTPRequests)
	errors := m.Counter("http." + name + ctrHTTPErrors)
	rejected := m.Counter("http." + name + ctrHTTPRejected)
	latency := m.Counter("http." + name + ctrHTTPLatency)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		endSpan := o.StartSpan("http." + name)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(rec, req)
		latency.Add(time.Since(start).Nanoseconds())
		endSpan()
		requests.Inc()
		switch {
		case rec.status >= 500:
			errors.Inc()
		case rec.status == http.StatusTooManyRequests:
			rejected.Inc()
		}
	})
}
