package lclgrid

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"lclgrid/internal/ring"
)

// Gateway is the HTTP front of a sharded serving fleet: it owns no
// engine and runs no synthesis, it routes. Each request's problem is
// reduced to its canonical fingerprint and the fingerprint is placed on
// a consistent-hash ring over the shard set (internal/ring), so every
// request for the same problem lands on the same `lclgrid serve`
// replica — which is what makes each replica's cache slice hot and the
// fleet's synthesis work partition cleanly, even before the shared
// remote cache deduplicates across them.
//
// Routes:
//
//	POST /v1/solve     routed to the fingerprint's shard
//	POST /v1/explain   routed to the fingerprint's shard
//	POST /v1/labels    routed to the fingerprint's shard
//	POST /v1/export    routed to the fingerprint's shard
//	POST /v1/batch     fanned out: lines grouped by owning shard, one
//	                   upstream batch per shard, result streams merged
//	                   (completion order by default, ?ordered=1 restores
//	                   input order via the Reordered collector)
//	GET  /v1/problems  proxied with the routed failover (the catalogue
//	                   is replica-independent)
//	POST /v1/problems  broadcast to every reachable shard (registration
//	                   is process-local registry state; the post is
//	                   idempotent on the canonical fingerprint), the
//	                   fingerprint owner's answer relayed to the client
//	GET  /v1/problems/{key}  routed to the key's owning shard
//	GET  /healthz      gateway liveness
//	GET  /readyz       503 until at least one shard probes healthy
//	GET  /metrics      gateway-side Prometheus series
//
// Failure handling: routed requests are idempotent (a solve is a pure
// function of its request, a problem read a pure lookup), so a shard
// that fails at the transport level — or answers 502/503, the "not me"
// statuses — is marked unhealthy and the request is retried on the
// next replica in the key's ring sequence. Mid-batch shard loss cannot
// be retried transparently (the stream is already committed), so the
// lost shard's unanswered lines surface as in-band per-request
// {"error": ...} lines while every other shard's results keep flowing.
//
// Admission, body caps, read and request deadlines, probes, /metrics
// and tracing come from the frontend shared with Server. A Gateway is
// an http.Handler; Serve adds the graceful drain and the background
// health prober.
type Gateway struct {
	*frontend
	shards   []string // normalized base URLs, ring member names
	ring     *ring.Ring
	client   *http.Client
	reg      *Registry
	probeGap time.Duration

	healthMu sync.Mutex
	health   map[string]*shardHealth

	// fpMu guards the routing-key memo: Problem.Fingerprint hashes the
	// whole constraint system on every call, far too hot for a per-line
	// recomputation during batch fan-out.
	fpMu sync.Mutex
	fps  map[string]string
}

// shardHealth is the gateway's view of one shard. known flips on the
// first probe or proxied response; until then the shard is neither
// healthy nor unhealthy and readiness treats it as absent.
type shardHealth struct {
	known   bool
	healthy bool
	lastErr string
}

// GatewayOption configures NewGateway.
type GatewayOption func(*gatewayConfig)

type gatewayConfig struct {
	client      *http.Client
	metrics     *MetricsObserver
	reg         *Registry
	maxInflight int
	maxBody     int64
	timeout     time.Duration
	drain       time.Duration
	probeGap    time.Duration
	traces      *TraceBuffer
}

// WithGatewayClient sets the HTTP client used for upstream shard
// requests. The default has no overall timeout (batch streams are
// long-lived) but inherits the per-request context deadlines.
func WithGatewayClient(c *http.Client) GatewayOption {
	return func(cfg *gatewayConfig) { cfg.client = c }
}

// WithGatewayMetrics shares a MetricsObserver with the gateway (default
// private).
func WithGatewayMetrics(m *MetricsObserver) GatewayOption {
	return func(cfg *gatewayConfig) { cfg.metrics = m }
}

// WithGatewayRegistry sets the registry used to reduce request keys to
// routing fingerprints (default DefaultRegistry()). The gateway's
// registry must resolve the same key set as the shards' or routed keys
// fall back to literal-key hashing — still deterministic, just not
// aligned with the shards' fingerprint ownership.
func WithGatewayRegistry(r *Registry) GatewayOption {
	return func(cfg *gatewayConfig) { cfg.reg = r }
}

// WithGatewayMaxInflight bounds concurrently proxied solve/batch
// requests, with the same shed-don't-queue 429 semantics as the server
// (n <= 0 unbounded).
func WithGatewayMaxInflight(n int) GatewayOption {
	return func(cfg *gatewayConfig) { cfg.maxInflight = n }
}

// WithGatewayMaxBodyBytes caps buffered request bodies (n <= 0 removes
// the cap).
func WithGatewayMaxBodyBytes(n int64) GatewayOption {
	return func(cfg *gatewayConfig) { cfg.maxBody = n }
}

// WithGatewayRequestTimeout bounds each proxied request (0 disables).
func WithGatewayRequestTimeout(d time.Duration) GatewayOption {
	return func(cfg *gatewayConfig) { cfg.timeout = d }
}

// WithGatewayDrainTimeout bounds Serve's graceful-shutdown drain (0
// selects DefaultDrainTimeout).
func WithGatewayDrainTimeout(d time.Duration) GatewayOption {
	return func(cfg *gatewayConfig) { cfg.drain = d }
}

// WithGatewayProbeInterval sets the background health-probe cadence
// (default 5s).
func WithGatewayProbeInterval(d time.Duration) GatewayOption {
	return func(cfg *gatewayConfig) { cfg.probeGap = d }
}

// WithGatewayTracing enables request tracing: every routed request gets
// a Trace, the traceparent header is forwarded to the owning shard (so
// the shard's own spans join the same trace id), X-Trace-Id is echoed,
// and completed traces land in buf — exposed at GET /debug/traces.
func WithGatewayTracing(buf *TraceBuffer) GatewayOption {
	return func(cfg *gatewayConfig) { cfg.traces = buf }
}

// NewGateway builds a gateway over the given shard base URLs (e.g.
// "http://shard-a:8080"). At least one shard is required; duplicates
// are rejected by the ring.
func NewGateway(shards []string, opts ...GatewayOption) (*Gateway, error) {
	cfg := gatewayConfig{
		maxInflight: DefaultMaxInflight,
		maxBody:     DefaultMaxBodyBytes,
		timeout:     DefaultRequestTimeout,
		drain:       DefaultDrainTimeout,
		probeGap:    5 * time.Second,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	normalized := make([]string, len(shards))
	for i, s := range shards {
		u, err := url.Parse(strings.TrimSpace(s))
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("lclgrid: gateway shard %d: %q is not an absolute URL", i, s)
		}
		if u.Scheme == "" {
			u.Scheme = "http"
		}
		normalized[i] = strings.TrimRight(u.String(), "/")
	}
	r, err := ring.New(normalized, 0)
	if err != nil {
		return nil, fmt.Errorf("lclgrid: gateway: %w", err)
	}
	if cfg.client == nil {
		cfg.client = &http.Client{}
	}
	if cfg.metrics == nil {
		cfg.metrics = NewMetricsObserver()
	}
	if cfg.reg == nil {
		cfg.reg = DefaultRegistry()
	}
	g := &Gateway{
		frontend: newFrontend(frontend{
			service: "gateway",
			metrics: cfg.metrics,
			traces:  cfg.traces,
			timeout: cfg.timeout,
			maxBody: cfg.maxBody,
			drain:   cfg.drain,
		}, cfg.maxInflight),
		shards:   normalized,
		ring:     r,
		client:   cfg.client,
		reg:      cfg.reg,
		probeGap: cfg.probeGap,
		health:   make(map[string]*shardHealth),
		fps:      make(map[string]string),
	}
	for _, s := range normalized {
		g.health[s] = &shardHealth{}
	}
	g.handle("POST /v1/solve", true, g.handleRouted)
	g.handle("POST /v1/explain", false, g.handleRouted)
	g.handle("POST /v1/labels", true, g.handleRouted)
	g.handle("POST /v1/export", true, g.handleRouted)
	g.handle("POST /v1/batch", true, g.handleBatch)
	g.handle("GET /v1/problems", false, g.handleProblems)
	g.handle("POST /v1/problems", false, g.handleDefineProblem)
	g.handle("GET /v1/problems/{key}", false, g.handleProblemGet)
	g.mountProbes(g.Ready)
	return g, nil
}

// Shards returns the normalized shard base URLs (the ring members).
func (g *Gateway) Shards() []string {
	out := make([]string, len(g.shards))
	copy(out, g.shards)
	return out
}

// Metrics returns the gateway's metrics observer.
func (g *Gateway) Metrics() *MetricsObserver { return g.metrics }

// Serve accepts connections on l until ctx is cancelled, running the
// background shard prober for the duration and draining in-flight
// requests on shutdown like Server.Serve.
func (g *Gateway) Serve(ctx context.Context, l net.Listener) error {
	probeCtx, stopProbe := context.WithCancel(ctx)
	defer stopProbe()
	go func() {
		g.ProbeShards(probeCtx)
		t := time.NewTicker(g.probeGap)
		defer t.Stop()
		for {
			select {
			case <-probeCtx.Done():
				return
			case <-t.C:
				g.ProbeShards(probeCtx)
			}
		}
	}()
	return g.serve(ctx, l, g)
}

// --- health -------------------------------------------------------------------

// ProbeShards probes every shard's /healthz once, updating the health
// table. Serve runs this on a ticker; tests call it directly.
func (g *Gateway) ProbeShards(ctx context.Context) {
	var wg sync.WaitGroup
	for _, shard := range g.shards {
		wg.Add(1)
		go func(shard string) {
			defer wg.Done()
			probeCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(probeCtx, http.MethodGet, shard+"/healthz", nil)
			if err != nil {
				g.setHealth(shard, false, err.Error())
				return
			}
			resp, err := g.client.Do(req)
			if err != nil {
				g.setHealth(shard, false, err.Error())
				return
			}
			resp.Body.Close()
			g.setHealth(shard, resp.StatusCode == http.StatusOK, resp.Status)
		}(shard)
	}
	wg.Wait()
}

func (g *Gateway) setHealth(shard string, healthy bool, detail string) {
	g.healthMu.Lock()
	h := g.health[shard]
	if h == nil {
		h = &shardHealth{}
		g.health[shard] = h
	}
	h.known = true
	h.healthy = healthy
	if !healthy {
		h.lastErr = detail
	} else {
		h.lastErr = ""
	}
	g.healthMu.Unlock()
}

func (g *Gateway) shardHealthy(shard string) bool {
	g.healthMu.Lock()
	defer g.healthMu.Unlock()
	h := g.health[shard]
	// Unknown shards are assumed healthy for routing (the first request
	// is the probe); readiness is stricter and requires a known-healthy
	// shard.
	return h == nil || !h.known || h.healthy
}

// Ready reports gateway readiness: at least one shard has probed (or
// served) healthy. Until the first probe round completes the gateway is
// deliberately unready — routing every request into an unprobed fleet
// is how a supervisor turns one bad deploy into an outage.
func (g *Gateway) Ready() error {
	g.healthMu.Lock()
	defer g.healthMu.Unlock()
	for _, h := range g.health {
		if h.known && h.healthy {
			return nil
		}
	}
	return errors.New("lclgrid: no healthy shard")
}

// --- routing ------------------------------------------------------------------

// routingKey reduces a request key to the string placed on the ring:
// the problem's canonical fingerprint when the registry resolves the
// key (memoized — fingerprints hash the whole constraint system), the
// literal key otherwise. Either way the same key always routes to the
// same shard; the fingerprint form additionally converges aliases
// ("3col" on a torus vs. its inline twin) onto one owner.
func (g *Gateway) routingKey(key string) string {
	if key == "" {
		return key
	}
	g.fpMu.Lock()
	fp, ok := g.fps[key]
	g.fpMu.Unlock()
	if ok {
		return fp
	}
	routed := key
	if spec, err := g.reg.Lookup(key); err == nil && spec.Problem != nil {
		routed = spec.Problem().Fingerprint()
	}
	g.fpMu.Lock()
	g.fps[key] = routed
	g.fpMu.Unlock()
	return routed
}

// readBody buffers the request body (the gateway must be able to replay
// it on retry) through the frontend's capped, read-deadlined reader.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(g.body(w, r))
	if err != nil {
		bodyError(w, r, err, "request body", fmt.Errorf("lclgrid: reading request body: %w", err))
		return nil, false
	}
	return data, true
}

// keyDoc extracts the routing identity from a request document. Every
// routed wire type (SolveRequest, LabelRequest, ExportRequest) names its
// problem in a "key" field or carries an inline "problem_def".
type keyDoc struct {
	Key        string      `json:"key"`
	ProblemDef *ProblemDef `json:"problem_def"`
}

// docRoutingKey reduces one request document to its ring placement:
// the registry fingerprint for key-named problems (see routingKey), the
// definition's own canonical fingerprint for inline problem_def
// requests — so a DSL-defined problem lands on the same shard whether
// it arrives by registered key or restated inline, and that shard's
// cache slice stays the single synthesis site. A definition that does
// not compile routes by the empty string; the owning shard answers the
// 400 (the gateway never validates, it routes).
func (g *Gateway) docRoutingKey(doc keyDoc) string {
	if doc.Key != "" {
		return g.routingKey(doc.Key)
	}
	if doc.ProblemDef != nil {
		if fp, err := doc.ProblemDef.Fingerprint(); err == nil {
			return fp
		}
	}
	return ""
}

// handleRouted proxies one buffered request document to the shards in
// ring order for its key (see proxy).
func (g *Gateway) handleRouted(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var doc keyDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		httpError(w, r, http.StatusBadRequest, fmt.Errorf("lclgrid: bad request document: %w", err))
		return
	}
	ctx, cancel := g.requestCtx(r)
	defer cancel()
	if resp := g.proxy(ctx, w, r, g.docRoutingKey(doc), body, "every replica for this key failed"); resp != nil {
		relay(w, resp)
	}
}

// proxy sends r (with the buffered body; a GET carries none) to the
// shards in ring order for route: the owner first, then each successor
// on a failed attempt (see forward) — requests are pure reads or
// solves, so the retry is safe. Known-unhealthy shards are skipped while
// alternatives remain; the last candidate is always tried (stale health
// beats certain failure). It returns the first answer — the shard's
// verdict, 2xx or not — for the caller to relay, or writes the 502
// naming failure and returns nil when every candidate failed.
func (g *Gateway) proxy(ctx context.Context, w http.ResponseWriter, r *http.Request, route string, body []byte, failure string) *http.Response {
	seq := g.ring.Sequence(route)
	var lastErr error
	for i, shard := range seq {
		if !g.shardHealthy(shard) && i+1 < len(seq) {
			continue
		}
		if lastErr != nil {
			g.metrics.gatewayRetry()
		}
		resp, err := g.forward(ctx, shard, r, body)
		if err == nil {
			return resp
		}
		lastErr = err
	}
	g.metrics.gatewayError()
	httpError(w, r, http.StatusBadGateway, fmt.Errorf("lclgrid: %s: %w", failure, lastErr))
	return nil
}

// forward issues r's method and path to one shard with the buffered
// body, carrying the request's trace via traceparent (and a GET's
// If-None-Match); each retry is its own "forward" span naming the shard
// it tried. A transport failure or a 502/503 answer (the "not me"
// statuses) marks the shard unhealthy and comes back as an error; any
// other answer marks it healthy.
func (g *Gateway) forward(ctx context.Context, shard string, r *http.Request, body []byte) (*http.Response, error) {
	u := shard + r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	ctx, sp := StartSpan(ctx, "forward")
	sp.SetAttr("shard", shard)
	sp.SetAttr("path", r.URL.Path)
	defer sp.End()
	req, err := http.NewRequestWithContext(ctx, r.Method, u, bytes.NewReader(body))
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	if r.Method == http.MethodGet {
		if v := r.Header.Get("If-None-Match"); v != "" {
			req.Header.Set("If-None-Match", v)
		}
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	injectTraceparent(ctx, req.Header)
	resp, err := g.client.Do(req)
	if err != nil {
		sp.SetError(err)
		g.setHealth(shard, false, err.Error())
		return nil, fmt.Errorf("shard %s: %w", shard, err)
	}
	sp.SetAttr("status", strconv.Itoa(resp.StatusCode))
	g.metrics.gatewayRequest(patternPath(r.Pattern), shard, resp.StatusCode)
	if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable {
		resp.Body.Close()
		g.setHealth(shard, false, resp.Status)
		return nil, fmt.Errorf("shard %s: %s", shard, resp.Status)
	}
	g.setHealth(shard, true, "")
	return resp, nil
}

// relay streams an upstream response to the client verbatim, flushing
// as it copies so upstream streams (export bands) stay streams.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	relayHeader(w, resp)
	rc := http.NewResponseController(w)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			_ = rc.Flush()
		}
		if err != nil {
			return
		}
	}
}

// relayBuffered writes an already-read upstream response to the client.
func relayBuffered(w http.ResponseWriter, resp *http.Response, body []byte) {
	relayHeader(w, resp)
	_, _ = w.Write(body)
}

// relayHeader copies the upstream headers a client can act on and the
// upstream status.
func relayHeader(w http.ResponseWriter, resp *http.Response) {
	for _, k := range []string{"Content-Type", "ETag", "Cache-Control", "Retry-After", TraceIDHeader} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
}

// handleProblems proxies the catalogue — the registry is identical
// across replicas, so any shard's answer serves.
func (g *Gateway) handleProblems(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := g.requestCtx(r)
	defer cancel()
	if resp := g.proxy(ctx, w, r, "catalogue", nil, "catalogue unavailable"); resp != nil {
		relay(w, resp)
	}
}

// definedDoc is the slice of a define/get response the gateway reads to
// learn a user key's routing fingerprint.
type definedDoc struct {
	Key         string `json:"key"`
	Fingerprint string `json:"fingerprint"`
}

// learnBinding memoizes a key→fingerprint binding from a shard's
// define/get response, so later requests naming the user key route to
// the fingerprint's owner exactly like catalogue keys (the gateway's
// own registry never learns user keys — the shards' registries do).
func (g *Gateway) learnBinding(body []byte) {
	var doc definedDoc
	if json.Unmarshal(body, &doc) != nil || doc.Key == "" || doc.Fingerprint == "" {
		return
	}
	g.fpMu.Lock()
	g.fps[doc.Key] = doc.Fingerprint
	g.fpMu.Unlock()
}

// handleDefineProblem serves POST /v1/problems by broadcast: a problem
// registration is process-local registry state on each shard (unlike
// synthesis results, which the fleet shares through the remote cache),
// so the definition is posted to every reachable shard — the post is
// idempotent on the canonical fingerprint, so repeats are free. The
// ring sequence for the definition's fingerprint orders the fan-out, so
// the answer relayed to the client is the owning shard's (the one whose
// cache slice later serves this problem), and the returned key's
// binding is memoized for catalogue-style routing of later requests.
func (g *Gateway) handleDefineProblem(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	ctx, cancel := g.requestCtx(r)
	defer cancel()
	var route string
	var def ProblemDef
	if err := json.Unmarshal(body, &def); err == nil {
		if fp, ferr := def.Fingerprint(); ferr == nil {
			route = fp
		}
	}
	relayed := false
	var lastErr error
	for _, shard := range g.ring.Sequence(route) {
		resp, err := g.forward(ctx, shard, r, body)
		if err != nil {
			lastErr = err
			continue
		}
		respBody, rerr := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		if rerr != nil {
			lastErr = fmt.Errorf("shard %s: %w", shard, rerr)
			continue
		}
		if resp.StatusCode < 300 {
			g.learnBinding(respBody)
		}
		if !relayed {
			relayBuffered(w, resp, respBody)
			relayed = true
			// A rejected definition (4xx) is the owner's verdict for the
			// whole fleet — no point posting it to the other shards.
			if resp.StatusCode >= 300 {
				return
			}
		}
	}
	if !relayed {
		g.metrics.gatewayError()
		if lastErr == nil {
			lastErr = errors.New("no shard available")
		}
		httpError(w, r, http.StatusBadGateway, fmt.Errorf("lclgrid: every shard refused the registration: %w", lastErr))
	}
}

// handleProblemGet proxies GET /v1/problems/{key} to the key's owning
// shard (see proxy), learning the key's fingerprint binding from a 200
// answer so a gateway that restarted after a registration re-converges
// on fingerprint routing lazily.
func (g *Gateway) handleProblemGet(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := g.requestCtx(r)
	defer cancel()
	resp := g.proxy(ctx, w, r, g.routingKey(r.PathValue("key")), nil, "problem lookup unavailable")
	if resp == nil {
		return
	}
	if resp.StatusCode != http.StatusOK {
		relay(w, resp)
		return
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	resp.Body.Close()
	if err != nil {
		g.metrics.gatewayError()
		httpError(w, r, http.StatusBadGateway, fmt.Errorf("lclgrid: problem lookup unavailable: %w", err))
		return
	}
	g.learnBinding(body)
	relayBuffered(w, resp, body)
}

// --- batch fan-out ------------------------------------------------------------

// gwLine mirrors the server's batchLine field-for-field (same names,
// same order, same omitempty), with the result carried as raw bytes:
// the gateway re-frames each upstream line with its global index but
// never re-marshals the shard's result object, so a gateway batch is
// byte-identical to a single-server batch line for line (modulo the
// elapsed_ns inside the result, which is wall-clock).
type gwLine struct {
	Index   *int            `json:"index,omitempty"`
	Key     string          `json:"key,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`
	TraceID string          `json:"trace_id,omitempty"`
}

// batchReq is one input line held for dispatch: its global index, its
// raw bytes (replayed verbatim to the owning shard — the gateway never
// re-marshals requests either), and its echo key.
type batchReq struct {
	index int
	raw   json.RawMessage
	key   string
}

// handleBatch serves POST /v1/batch by fan-out: input lines are grouped
// by the shard owning their fingerprint, each group becomes one
// upstream batch stream, and the result streams merge onto the client
// connection as lines complete (?ordered=1 restores global input order
// through the same Reordered collector the single server uses). A shard
// failing mid-stream fails only its own unanswered lines — each becomes
// an in-band {"index", "key", "error"} line — and a malformed input
// line stops the fan-out with the server's terminal index-less error
// line after the dispatched work drains.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	ctx, cancel := g.requestCtx(r)
	defer cancel()

	// Partition the input by owning shard. The whole batch is decoded
	// up front — the body is already buffered and capped, and grouping
	// needs the full index space anyway.
	var decodeErr error
	groups := make(map[string][]batchReq)
	total := 0
	dec := json.NewDecoder(bytes.NewReader(body))
	for index := 0; ; index++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if err != io.EOF {
				decodeErr = err
			}
			break
		}
		var doc keyDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			decodeErr = err
			break
		}
		shard := g.pickShardRoute(g.docRoutingKey(doc))
		groups[shard] = append(groups[shard], batchReq{index: index, raw: raw, key: doc.Key})
		total++
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)

	// Collector: shard readers publish each global line here; the main
	// goroutine is the only writer to the connection.
	results := make(chan gwLine)
	var wg sync.WaitGroup
	for shard, reqs := range groups {
		wg.Add(1)
		go func(shard string, reqs []batchReq) {
			defer wg.Done()
			g.runShardBatch(ctx, shard, reqs, func(line gwLine) {
				select {
				case results <- line:
				case <-ctx.Done():
				}
			})
		}(shard, reqs)
	}
	go func() { wg.Wait(); close(results) }()

	emit := func(line gwLine) bool {
		if enc.Encode(line) == nil && rc.Flush() == nil {
			return true
		}
		go func() {
			for range results {
			} // unblock the shard readers; ctx teardown follows
		}()
		return false
	}
	if !orderedBatch(r) {
		for line := range results {
			if !emit(line) {
				return
			}
		}
	} else {
		// Feed the merged stream through the same collector the server
		// uses: BatchItems carry the global index, a side table carries
		// the frames.
		frames := make(map[int]gwLine, total)
		seq := func(yield func(BatchItem, error) bool) {
			for line := range results {
				frames[*line.Index] = line
				if !yield(BatchItem{Index: *line.Index}, nil) {
					return
				}
			}
		}
		for it := range Reordered(seq) {
			line := frames[it.Index]
			delete(frames, it.Index)
			if !emit(line) {
				return
			}
		}
	}

	if decodeErr != nil {
		_ = enc.Encode(gwLine{Error: fmt.Sprintf("lclgrid: bad batch document: %v", decodeErr), TraceID: TraceIDFromContext(ctx)})
		_ = rc.Flush()
	}
}

// pickShard returns the first routable shard for a request key.
func (g *Gateway) pickShard(key string) string {
	return g.pickShardRoute(g.routingKey(key))
}

// pickShardRoute returns the first routable shard for a routing
// identity (see docRoutingKey): the ring owner when healthy, else the
// first healthy successor (falling back to the owner when nothing
// probes healthy — stale health beats refusing the line).
func (g *Gateway) pickShardRoute(route string) string {
	seq := g.ring.Sequence(route)
	for _, shard := range seq {
		if g.shardHealthy(shard) {
			return shard
		}
	}
	return seq[0]
}

// runShardBatch streams one shard's sub-batch and republishes each line
// with its global index. Any failure — transport, status, a truncated
// or malformed upstream stream — fails the not-yet-answered lines
// in-band and marks the shard unhealthy; answered lines are never
// disturbed.
func (g *Gateway) runShardBatch(ctx context.Context, shard string, reqs []batchReq, publish func(gwLine)) {
	ctx, sp := StartSpan(ctx, "batch.shard")
	sp.SetAttr("shard", shard)
	sp.SetAttr("lines", strconv.Itoa(len(reqs)))
	defer sp.End()
	tid := TraceIDFromContext(ctx)
	// Indexes answered so far; on failure the remainder get error lines.
	answered := make([]bool, len(reqs))
	fail := func(err error) {
		sp.SetError(err)
		g.setHealth(shard, false, err.Error())
		g.metrics.gatewayError()
		for i := range reqs {
			if answered[i] {
				continue
			}
			index := reqs[i].index
			publish(gwLine{
				Index:   &index,
				Key:     reqs[i].key,
				Error:   fmt.Sprintf("lclgrid: shard %s failed mid-batch: %v", shard, err),
				TraceID: tid,
			})
		}
	}

	var sub bytes.Buffer
	for _, rq := range reqs {
		sub.Write(rq.raw)
		sub.WriteByte('\n')
	}
	// Sub-batches run unordered upstream even for ordered client
	// requests: global ordering is restored at the gateway's collector,
	// and an ordered upstream would only add head-of-line blocking.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, shard+"/v1/batch", &sub)
	if err != nil {
		fail(err)
		return
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	injectTraceparent(ctx, req.Header)
	resp, err := g.client.Do(req)
	if err != nil {
		fail(err)
		return
	}
	defer resp.Body.Close()
	g.metrics.gatewayRequest("/v1/batch", shard, resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		fail(fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data))))
		return
	}
	g.setHealth(shard, true, "")

	seen := 0
	updec := json.NewDecoder(bufio.NewReader(resp.Body))
	for {
		var line gwLine
		if err := updec.Decode(&line); err != nil {
			if err == io.EOF && seen == len(reqs) {
				return // clean: every line answered
			}
			if err == io.EOF {
				err = fmt.Errorf("stream ended after %d of %d lines", seen, len(reqs))
			}
			fail(err)
			return
		}
		if line.Index == nil {
			// A terminal index-less error line: the shard aborted its
			// stream. Everything unanswered fails with its message.
			fail(errors.New(line.Error))
			return
		}
		local := *line.Index
		if local < 0 || local >= len(reqs) || answered[local] {
			fail(fmt.Errorf("stream returned unexpected index %d", local))
			return
		}
		answered[local] = true
		seen++
		global := reqs[local].index
		line.Index = &global
		publish(line)
	}
}
