package lclgrid

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// frontend is the HTTP serving policy Server, Gateway and CacheServer
// share: route mounting with optional admission control, the
// metrics/trace-root middleware, the capped body reader with its read
// deadline, the per-request context, the probe and metrics mounts, and
// Serve with its bounded graceful drain. Each service embeds one and
// keeps only its own routes.
type frontend struct {
	service  string // trace service name
	mux      *http.ServeMux
	metrics  *MetricsObserver // nil = routes mount uninstrumented, no /metrics
	traces   *TraceBuffer     // nil = tracing off
	inflight chan struct{}    // nil = unbounded admission
	timeout  time.Duration    // per-request deadline and body read deadline (0 = none)
	maxBody  int64            // body cap (<= 0 = none)
	drain    time.Duration
}

// newFrontend completes f: a fresh mux, the admission bound (maxInflight
// <= 0 = unbounded) and the drain default.
func newFrontend(f frontend, maxInflight int) *frontend {
	f.mux = http.NewServeMux()
	if maxInflight > 0 {
		f.inflight = make(chan struct{}, maxInflight)
	}
	if f.drain <= 0 {
		f.drain = DefaultDrainTimeout
	}
	return &f
}

// ServeHTTP implements http.Handler.
func (f *frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mux.ServeHTTP(w, r)
}

// serve accepts connections on l, handing them to h, until ctx is
// cancelled, then shuts down gracefully: the listener closes, in-flight
// requests (streams included) run to completion, and only when the drain
// window expires are the stragglers force-closed — which cancels their
// request contexts, so in-flight work aborts at its next checkpoint
// instead of leaking. It returns nil after a clean drain, the listener's
// error if accepting fails, or a drain error naming the window when
// requests had to be cut off.
func (f *frontend) serve(ctx context.Context, l net.Listener, h http.Handler) error {
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(l) }()
	select {
	case err := <-serveErr:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), f.drain)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		hs.Close()
		<-serveErr
		return fmt.Errorf("lclgrid: drain window %v expired with requests still in flight: %w", f.drain, err)
	}
	<-serveErr // hs.Serve has returned http.ErrServerClosed
	return nil
}

// handle mounts h on pattern ("METHOD /path"), behind the admission
// bound when admitted, and instrumented under the pattern's path when
// the frontend has a metrics observer.
func (f *frontend) handle(pattern string, admitted bool, h http.HandlerFunc) {
	var next http.Handler = h
	if admitted {
		next = f.admit(h)
	}
	if f.metrics != nil {
		next = f.instrument(patternPath(pattern), next)
	}
	f.mux.Handle(pattern, next)
}

// patternPath returns the path of a "METHOD /path" mux pattern — the
// route label of the metrics series.
func patternPath(pattern string) string {
	return pattern[strings.IndexByte(pattern, ' ')+1:]
}

// mountProbes mounts GET /healthz (pure liveness), GET /readyz (503
// naming ready's error until it returns nil; nil = always ready),
// GET /metrics when the frontend has an observer, and GET /debug/traces
// when it traces — the latter raw, so the trace inspector never disturbs
// the request series it exists to explain.
func (f *frontend) mountProbes(ready func() error) {
	f.handle("GET /healthz", false, func(w http.ResponseWriter, r *http.Request) {
		writeStatus(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	f.handle("GET /readyz", false, func(w http.ResponseWriter, r *http.Request) {
		if ready != nil {
			if err := ready(); err != nil {
				writeStatus(w, http.StatusServiceUnavailable, map[string]string{"status": "unready", "error": err.Error()})
				return
			}
		}
		writeStatus(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	if f.metrics != nil {
		f.handle("GET /metrics", false, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = f.metrics.WritePrometheus(w)
		})
	}
	if f.traces != nil {
		f.mux.Handle("GET /debug/traces", f.traces.Handler())
	}
}

// writeStatus writes one JSON probe document with the given status.
func writeStatus(w http.ResponseWriter, code int, doc map[string]string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(doc)
}

// instrument records the HTTP-level metrics for one route: in-flight
// gauge, per-path/status counters and the handler latency histogram.
// With tracing enabled it also roots the request's trace. Only the /v1/
// work endpoints trace: liveness/readiness probes and metric scrapes are
// high-frequency noise that would evict the traces worth keeping.
func (f *frontend) instrument(path string, next http.Handler) http.Handler {
	traced := f.traces != nil && strings.HasPrefix(path, "/v1/")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.metrics.httpStart()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		if traced {
			f.serveTraced(sw, r, path, next)
		} else {
			next.ServeHTTP(sw, r)
		}
		f.metrics.httpEnd(path, sw.status(), time.Since(start))
	})
}

// serveTraced serves r under a new trace named name — joining the
// caller's via traceparent, echoing X-Trace-Id, and depositing the
// finished trace (status attribute included) into the buffer.
func (f *frontend) serveTraced(sw *statusWriter, r *http.Request, name string, next http.Handler) {
	tr := traceForRequest(f.service, name, r)
	sw.Header().Set(TraceIDHeader, tr.ID())
	defer func() {
		tr.Root().SetAttr("status", strconv.Itoa(sw.status()))
		tr.Finish(f.traces)
	}()
	next.ServeHTTP(sw, r.WithContext(ContextWithSpan(r.Context(), tr.Root())))
}

// admit gates a handler behind the in-flight admission bound. A request
// that cannot take a slot immediately is rejected with 429 and
// Retry-After — shedding load beats queueing it unboundedly, and the
// client's backoff is the queue.
func (f *frontend) admit(next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.inflight != nil {
			select {
			case f.inflight <- struct{}{}:
				defer func() { <-f.inflight }()
			default:
				f.metrics.httpRejected()
				w.Header().Set("Retry-After", "1")
				httpError(w, r, http.StatusTooManyRequests,
					errors.New("lclgrid: at capacity (max in-flight requests reached); retry after backoff"))
				return
			}
		}
		next(w, r)
	})
}

// requestCtx derives the per-request context from the connection's,
// bounded by the request timeout when one is set.
func (f *frontend) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if f.timeout > 0 {
		return context.WithTimeout(r.Context(), f.timeout)
	}
	return context.WithCancel(r.Context())
}

// body returns the request body behind the body cap, first putting the
// request timeout on the connection's read side. Body reads do not
// observe the request context, so without the deadline a client that
// sends half a document and stalls would park the handler in its read
// indefinitely — holding an admission slot and defeating the in-flight
// bound (the slowloris the bound exists to survive). Best-effort: a
// transport without deadline support keeps only the context timeout.
func (f *frontend) body(w http.ResponseWriter, r *http.Request) io.Reader {
	if f.timeout > 0 {
		_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(f.timeout))
	}
	if f.maxBody > 0 {
		return http.MaxBytesReader(w, r.Body, f.maxBody)
	}
	return r.Body
}

// bodyError answers a failed body read: 413 naming the cap when the
// body overran it (what names the body), else 400 with bad.
func bodyError(w http.ResponseWriter, r *http.Request, err error, what string, bad error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, r, http.StatusRequestEntityTooLarge, fmt.Errorf("lclgrid: %s exceeds %d bytes", what, mbe.Limit))
		return
	}
	httpError(w, r, http.StatusBadRequest, bad)
}

// orderedBatch reports whether a batch request asked for input order
// (?ordered=1 or ?ordered=true) instead of completion order.
func orderedBatch(r *http.Request) bool {
	v := r.URL.Query().Get("ordered")
	return v == "1" || v == "true"
}

// errorBody is the JSON error document every non-2xx response carries.
// The trace id (present when the request is traced) lets a client quote
// the exact failing request — 429/413/504 rejections included — in a
// bug report an operator can look up in /debug/traces.
type errorBody struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

// httpError writes a JSON error document with the given status,
// stamping the request's trace id when it has one.
func httpError(w http.ResponseWriter, r *http.Request, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := errorBody{Error: err.Error()}
	if r != nil {
		body.TraceID = TraceIDFromContext(r.Context())
	}
	_ = json.NewEncoder(w).Encode(body)
}

// statusWriter captures the response status for the metrics middleware.
// It forwards Flush (streaming endpoints) and exposes Unwrap for
// http.NewResponseController.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) status() int {
	if sw.code == 0 {
		return http.StatusOK
	}
	return sw.code
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// Flush implements http.Flusher for the streaming endpoints.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// headerWritten reports whether the response status is already on the
// wire (the instrument middleware's statusWriter tracks it).
func headerWritten(w http.ResponseWriter) bool {
	sw, ok := w.(*statusWriter)
	return ok && sw.code != 0
}
