package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	lclgrid "lclgrid"
	"lclgrid/internal/coloring"
	"lclgrid/internal/core"
	"lclgrid/internal/grid"
	"lclgrid/internal/ring"
)

// The traced run replays a workload's seeded requests in-process,
// calling each layer's public function in turn and recording a span
// around every call. Spans are kept in memory and written out at the
// end; the per-layer metrics are self times per request taken from them,
// plus counts scraped from /metrics and read off the layers' results.

// span is one timed layer call.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans of a single-threaded replay.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string) int {
	parent := -1
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1]
	}
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(tr.t0)})
	tr.stack = append(tr.stack, id)
	return id
}

func (tr *tracer) end(id int) {
	tr.spans[id].End = time.Since(tr.t0)
	tr.stack = tr.stack[:len(tr.stack)-1]
}

// do runs fn inside a span.
func (tr *tracer) do(name string, fn func()) {
	id := tr.begin(name)
	fn()
	tr.end(id)
}

// layerStat is one span name's self time under one kind of root.
type layerStat struct {
	self  time.Duration // summed over every span of the name
	roots int           // roots holding at least one span of the name
}

// selfTimes sums self time (duration minus the children's) per span
// name, over the trees whose root is named root.
func (tr *tracer) selfTimes(root string) map[string]*layerStat {
	rootOf := make([]int, len(tr.spans))
	childTime := make([]time.Duration, len(tr.spans))
	for i, s := range tr.spans {
		if s.Parent < 0 {
			rootOf[i] = i
			continue
		}
		rootOf[i] = rootOf[s.Parent]
		childTime[s.Parent] += s.End - s.Start
	}
	out := make(map[string]*layerStat)
	seen := make(map[[2]int]bool)
	names := map[string]int{}
	for i, s := range tr.spans {
		if s.Parent < 0 || tr.spans[rootOf[i]].Name != root {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
			names[s.Name] = len(names)
		}
		st.self += s.End - s.Start - childTime[i]
		if k := [2]int{rootOf[i], names[s.Name]}; !seen[k] {
			seen[k] = true
			st.roots++
		}
	}
	return out
}

// Root span names.
const (
	rootRequest = "request" // one of the workload's own requests
	rootProbe   = "probe"   // a layer the workload bypasses, timed on derived inputs
	rootWarm    = "warm"    // one catalogue key of the -warm sweep
)

// replayed is one item's in-process result.
type replayed struct {
	labels []int
	total  time.Duration
	halo   float64 // label windows: halo nodes per window node
}

// synthTally counts the synthesis layer's work.
type synthTally struct {
	shapes, tables        int
	tiles                 int
	conflicts, propagated int
}

// replayer runs the in-process decomposition against one engine.
type replayer struct {
	ctx   context.Context
	eng   *lclgrid.Engine
	tr    *tracer
	synth synthTally
	// encoded holds the size of every encoded solve Result.
	encoded []float64
}

// lookup serves the normal form from the engine's cache the way the
// server's plan does: the spec's attempt shapes that fit the torus, in
// order, the first table wins.
func (rp *replayer) lookup(p *lclgrid.Problem, attempts []lclgrid.SynthAttempt, t *lclgrid.Torus) (*lclgrid.Synthesized, error) {
	var alg *lclgrid.Synthesized
	var err error
	rp.tr.do("cache.lookup", func() {
		err = errors.New("no attempt shape fits the torus")
		for _, a := range attempts {
			if t.NX() < lclgrid.MinTorusSide(a.K, a.H, a.W) || t.NY() < lclgrid.MinTorusSide(a.K, a.H, a.W) {
				continue
			}
			var cached bool
			alg, cached, err = rp.eng.Synthesize(rp.ctx, p, a.K, a.H, a.W)
			if err == nil && !cached {
				err = fmt.Errorf("k=%d %dx%d was not cached", a.K, a.H, a.W)
			}
			if err == nil {
				return
			}
		}
	})
	return alg, err
}

// synthesize runs the one-sided oracle's shapes for p in order on one
// incremental sweep, timing the tile enumeration of each shape on its
// own so that the SAT share is the sweep minus its enumeration.
func (rp *replayer) synthesize(p *lclgrid.Problem, shapes [][3]int) (*lclgrid.Synthesized, error) {
	sweep := core.NewSynthSweep(p)
	for _, s := range shapes {
		rp.synth.shapes++
		var tg *core.TileGraph
		var err error
		rp.tr.do("synth.enumerate", func() { tg, err = core.BuildTileGraph(rp.ctx, s[0], s[1], s[2]) })
		if err != nil {
			return nil, err
		}
		var alg *lclgrid.Synthesized
		rp.tr.do("synth.sweep", func() { alg, err = sweep.Synthesize(rp.ctx, s[0], s[1], s[2]) })
		if errors.Is(err, core.ErrUnsatisfiable) {
			continue
		}
		if err != nil {
			return nil, err
		}
		rp.synth.tables++
		rp.synth.tiles += tg.NumTiles()
		rp.synth.conflicts += alg.SolverStats.Conflicts
		rp.synth.propagated += alg.SolverStats.Propagated
		return alg, nil
	}
	return nil, errors.New("no oracle shape admits a table")
}

// solve decomposes one solve request: decode → (compile → synthesis for
// an inline problem) → plan → cache lookup → ids → anchors → apply →
// verify → encode. fleetTable, when set, is the table the fleet served
// the request with; the replay applies it so its labels can be compared
// with the HTTP answer.
func (rp *replayer) solve(root string, body []byte, fleetTable *lclgrid.Synthesized) (replayed, error) {
	tr := rp.tr
	rid := tr.begin(root)
	defer func() {
		if tr.spans[rid].End == 0 {
			tr.end(rid)
		}
	}()
	var req lclgrid.SolveRequest
	var err error
	tr.do("solve.decode", func() {
		if err = json.Unmarshal(body, &req); err == nil {
			err = req.Validate()
		}
	})
	if err != nil {
		return replayed{}, err
	}
	var p *lclgrid.Problem
	var attempts []lclgrid.SynthAttempt
	constant := false
	if req.ProblemDef != nil {
		tr.do("synth.compile", func() {
			var canon *lclgrid.ProblemDef
			if canon, err = req.ProblemDef.Canonical(); err != nil {
				return
			}
			if p, err = canon.Compile(); err != nil {
				return
			}
			_, err = canon.Fingerprint()
		})
		if err != nil {
			return replayed{}, err
		}
	} else {
		spec, lerr := rp.eng.Registry().Lookup(req.Key)
		if lerr != nil {
			return replayed{}, lerr
		}
		p, attempts, constant = spec.Problem(), spec.Attempts, spec.Constant
	}
	var plan *lclgrid.Plan
	tr.do("solve.plan", func() { plan, err = rp.eng.Plan(req) })
	if err != nil {
		return replayed{}, err
	}
	if len(plan.Strategies) == 0 {
		return replayed{}, errors.New("empty plan")
	}
	t := lclgrid.Square(req.N)
	var ids []int
	tr.do("solve.ids", func() { ids = lclgrid.PermutedIDs(t.N(), req.Seed) })
	var labels []int
	res := lclgrid.Result{Problem: p.Name(), Verification: lclgrid.Verified}
	if constant {
		tr.do("solve.fill", func() {
			labels = make([]int, t.N())
			c := p.ConstantSolutions()[0]
			for v := range labels {
				labels[v] = c
			}
		})
		res.Solver, res.Class = "constant fill", lclgrid.ClassO1
	} else {
		var alg *lclgrid.Synthesized
		if req.ProblemDef != nil {
			found, serr := rp.synthesize(p, core.OracleSchedule(3))
			if serr != nil {
				return replayed{}, serr
			}
			if fleetTable == nil {
				fleetTable = found
			}
			// Serve the request from the engine's cache, holding the table
			// the answer is compared against, as the server's plan does
			// after the oracle found it.
			a := lclgrid.SynthAttempt{K: fleetTable.K, H: fleetTable.H, W: fleetTable.W}
			rp.eng.Cache().Put(lclgrid.SynthKey{Fingerprint: p.Fingerprint(), K: a.K, H: a.H, W: a.W},
				lclgrid.CachedSynthesis{Alg: fleetTable})
			attempts = []lclgrid.SynthAttempt{a}
		}
		if alg, err = rp.lookup(p, attempts, t); err != nil {
			return replayed{}, err
		}
		var anchors []bool
		rounds := &lclgrid.Rounds{}
		tr.do("solve.anchors", func() { anchors = coloring.Anchors(t, alg.K, grid.L1, ids, rounds) })
		tr.do("solve.apply", func() { labels, err = alg.Apply(t, anchors) })
		if err != nil {
			return replayed{}, err
		}
		res.Solver, res.Class, res.CacheHit = "normal-form synthesis", lclgrid.ClassLogStar, true
		res.Rounds = rounds.Total() + alg.GatherRadius()
		res.Note = fmt.Sprintf("k=%d window %dx%d, %d tiles", alg.K, alg.H, alg.W, alg.Graph.NumTiles())
	}
	tr.do("solve.verify", func() { err = p.Verify(t, labels) })
	if err != nil {
		return replayed{}, fmt.Errorf("in-process labelling rejected: %w", err)
	}
	res.Labels = labels
	var enc []byte
	tr.do("solve.encode", func() { enc, err = json.Marshal(&res) })
	if err != nil {
		return replayed{}, err
	}
	tr.end(rid)
	rp.encoded = append(rp.encoded, float64(len(enc)))
	return replayed{labels: labels, total: tr.spans[rid].End - tr.spans[rid].Start}, nil
}

// window decomposes one label-window request: decode → cache lookup →
// schedule (NewWindowEvaluator) → window (LabelRect) → encode. alg, when
// set, replaces the registry lookup (a novel problem's table).
func (rp *replayer) window(root string, body []byte, alg *lclgrid.Synthesized) (replayed, error) {
	tr := rp.tr
	rid := tr.begin(root)
	defer func() {
		if tr.spans[rid].End == 0 {
			tr.end(rid)
		}
	}()
	var req lclgrid.LabelRequest
	var err error
	tr.do("labels.decode", func() {
		if err = json.Unmarshal(body, &req); err == nil {
			err = req.Validate()
		}
	})
	if err != nil {
		return replayed{}, err
	}
	t, err := lclgrid.NewTorus(req.Sides...)
	if err != nil {
		return replayed{}, err
	}
	name := "novel"
	if alg == nil {
		spec, lerr := rp.eng.Registry().Lookup(req.Key)
		if lerr != nil {
			return replayed{}, lerr
		}
		name = spec.Name
		if alg, err = rp.lookup(spec.Problem(), spec.Attempts, t); err != nil {
			return replayed{}, err
		}
	}
	var ev *core.WindowEvaluator
	tr.do("labels.schedule", func() { ev, err = core.NewWindowEvaluator(alg, t, req.Seed, false) })
	if err != nil {
		return replayed{}, err
	}
	var labels []int
	tr.do("labels.window", func() { labels, err = ev.LabelRect(rp.ctx, req.X, req.Y, req.W, req.H) })
	if err != nil {
		return replayed{}, err
	}
	st := ev.Stats()
	nx, ny := t.NX(), t.NY()
	resp := lclgrid.LabelResponse{
		Key: req.Key, Problem: name, Sides: []int{nx, ny}, Seed: req.Seed,
		X: ((req.X % nx) + nx) % nx, Y: ((req.Y % ny) + ny) % ny, W: req.W, H: req.H,
		Mode:    lclgrid.LabelModeExact,
		Attempt: lclgrid.SynthAttempt{K: alg.K, H: alg.H, W: alg.W},
		Labels:  labels, Rounds: ev.Rounds(), CacheHit: true, Stats: st,
	}
	tr.do("labels.encode", func() { _, err = json.Marshal(&resp) })
	if err != nil {
		return replayed{}, err
	}
	tr.end(rid)
	return replayed{
		labels: labels, total: tr.spans[rid].End - tr.spans[rid].Start,
		halo: float64(st.HaloNodes) / float64(max(1, st.WindowNodes)),
	}, nil
}

// warmCatalogue replays the -warm sweep the server pays at set-up: every
// catalogue key with synthesis attempts, its shapes in order on one
// sweep, until a table is found.
func (rp *replayer) warmCatalogue() error {
	reg := rp.eng.Registry()
	for _, key := range reg.Keys() {
		spec, err := reg.Lookup(key)
		if err != nil {
			return err
		}
		if len(spec.Attempts) == 0 || spec.Problem == nil {
			continue
		}
		shapes := make([][3]int, len(spec.Attempts))
		for i, a := range spec.Attempts {
			shapes[i] = [3]int{a.K, a.H, a.W}
		}
		id := rp.tr.begin(rootWarm)
		_, err = rp.synthesize(spec.Problem(), shapes)
		rp.tr.end(id)
		if err != nil {
			return fmt.Errorf("warm %s: %w", key, err)
		}
	}
	return nil
}

// httpSample is one request of the traced run's HTTP phases.
type httpSample struct {
	it  item
	out outcome
}

// owner returns the shard the ring places a request on, as the gateway
// does: the fingerprint of the inline definition, or of the key.
func owner(r *ring.Ring, eng *lclgrid.Engine, it item) (string, error) {
	if it.def != nil {
		fp, err := it.def.Fingerprint()
		return r.Owner(fp), err
	}
	spec, err := eng.Registry().Lookup(it.key)
	if err != nil {
		return "", err
	}
	return r.Owner(spec.Problem().Fingerprint()), nil
}

// sequential sends items one at a time, to each item's target.
func sequential(ctx context.Context, items []item, target func(item) string, ts *tables) ([]httpSample, []float64) {
	client := newClient()
	defer client.CloseIdleConnections()
	out := make([]httpSample, len(items))
	var lats []float64
	for i, it := range items {
		o := send(ctx, client, target(it), it, ts)
		out[i] = httpSample{it: it, out: o}
		if o.ok {
			lats = append(lats, float64(o.lat)/float64(time.Millisecond))
		}
	}
	return out, lats
}

// metricDelta sums after−before over every series whose name (before
// any labels) is name.
func metricDelta(before, after []map[string]float64, name string) float64 {
	var d float64
	for i := range after {
		for series, v := range after[i] {
			if series == name || strings.HasPrefix(series, name+"{") {
				d += v - before[i][series]
			}
		}
	}
	return d
}

func scrapeAll(urls []string) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(urls))
	for i, u := range urls {
		m, err := scrape(u)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// storeCalls times the fleet store's blob and lease endpoints on the
// stored records: GET, PUT of the same bytes, and a lease acquire
// (released untimed).
func storeCalls(ctx context.Context, tr *tracer, base string, names []string, calls int) (putBytes float64, err error) {
	client := newClient()
	defer client.CloseIdleConnections()
	do := func(method, u string, body []byte) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode/100 != 2 {
			err = fmt.Errorf("%s %s: %s", method, u, resp.Status)
		}
		return data, err
	}
	var total int
	for i := range calls {
		name := names[i%len(names)]
		root := tr.begin("store")
		var blob []byte
		tr.do("remote.get", func() { blob, err = do(http.MethodGet, base+"/cache/"+name, nil) })
		if err == nil {
			tr.do("remote.put", func() { _, err = do(http.MethodPut, base+"/cache/"+name, blob) })
		}
		lease := base + "/lease/" + name + "?owner=perfbench"
		if err == nil {
			tr.do("lease.acquire", func() { _, err = do(http.MethodPost, lease+"&ttl=15s", nil) })
		}
		tr.end(root)
		if err != nil {
			return 0, err
		}
		if _, err = do(http.MethodDelete, lease, nil); err != nil {
			return 0, err
		}
		total += len(blob)
	}
	return float64(total) / float64(calls), nil
}

// storeNames lists the record names the fleet store holds.
func storeNames(base string) ([]string, error) {
	resp, err := probeClient.Get(base + "/keys")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		return nil, fmt.Errorf("GET /keys: %w", err)
	}
	sort.Strings(names)
	return names, nil
}

// The traced run's sample is the first traceRequestsPerSecond·seconds
// requests of the measured stream, at most maxTraceRequests: each is
// sent twice and replayed twice, and the run must stay well inside the
// benchmark's per-run time limit.
const (
	traceRequestsPerSecond = 20
	maxTraceRequests       = 300
)

// runTraced is the traced run: the same seeded requests sent over HTTP
// one at a time (directly and through a gateway), then replayed
// in-process layer by layer and compared with the answers served.
func runTraced(ctx context.Context, bin string, wl *workload, seed int64, dur time.Duration, dir string) (*result, error) {
	c, err := startCluster(ctx, bin, wl)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	if err := c.addTraceExtras(ctx, bin); err != nil {
		return nil, err
	}
	// The host's speed during the traced run, for comparing its times
	// with other runs' (see calib.go).
	cal := newCalibrator()
	cal.run(time.Second)
	n := min(maxTraceRequests, traceRequestsPerSecond*int(dur/time.Second))
	sample := fixedList(wl, seed, 0, n)
	eng := lclgrid.NewEngine()
	r, err := ring.New(c.shards, 0)
	if err != nil {
		return nil, err
	}
	ts := newTables(c.shards[0])
	var urls []string
	for _, p := range append(append([]*proc(nil), c.procs...), c.extra...) {
		urls = append(urls, p.url)
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: trace: "+format+"\n", args...)
	}

	// HTTP, direct to the owning shard.
	before, err := scrapeAll(urls)
	if err != nil {
		return nil, err
	}
	var ownerErr error
	direct, directLats := sequential(ctx, sample, func(it item) string {
		o, err := owner(r, eng, it)
		if err != nil {
			ownerErr = err
		}
		return o
	}, ts)
	if ownerErr != nil {
		return nil, ownerErr
	}
	after, err := scrapeAll(urls)
	if err != nil {
		return nil, err
	}
	// Through the gateway: the same requests on the warm workloads (all
	// cache hits there); a second novel list on fleet-novel, since the
	// first is now cached.
	gwItems := sample
	if wl.fixed {
		gwItems = fixedList(wl, seed, 2, n)
	}
	gwRes, gwLats := sequential(ctx, gwItems, func(item) string { return c.gateway }, ts)
	for _, s := range append(append([]httpSample(nil), direct...), gwRes...) {
		res.Attempted++
		if !s.out.ok {
			res.Failed++
			if s.out.wrong {
				res.Correct = false
			}
			fmt.Fprintln(os.Stderr, "perfbench: trace: failure:", s.out.err)
		}
	}
	if len(directLats) == 0 || len(gwLats) == 0 {
		return nil, errors.New("traced run: no request succeeded")
	}

	// In-process replay.
	tr := newTracer()
	rp := &replayer{ctx: ctx, eng: eng, tr: tr}
	if !wl.fixed {
		// The warm workloads pay synthesis once, at set-up; replay it.
		if err := rp.warmCatalogue(); err != nil {
			return nil, err
		}
		if _, err := eng.Warm(ctx); err != nil {
			return nil, err
		}
	}
	remote, err := lclgrid.NewRemoteCache(c.cachesvc, lclgrid.NewMemoryCache())
	if err != nil {
		return nil, err
	}
	var ownTotals []time.Duration
	var halo []float64
	for i, s := range direct {
		if !s.out.ok {
			continue
		}
		it := s.it
		switch it.kind {
		case kindSolve:
			var fleet *lclgrid.Synthesized
			if it.def != nil {
				if fleet, err = fleetTable(remote, it, s.out.body); err != nil {
					return nil, err
				}
			}
			got, err := rp.solve(rootRequest, it.body, fleet)
			if err != nil {
				return nil, fmt.Errorf("replaying request %d: %w", i, err)
			}
			if !slices.Equal(got.labels, s.out.labels) {
				fail("request %d: anchors+apply labels differ from the served answer", i)
			}
			ownTotals = append(ownTotals, got.total)
			// Probe: a 16×16 window of the same problem on the same torus.
			if it.key == "is" {
				continue // O(1): no normal form, so no windowed labeling
			}
			wr := rngFor(seed, 3, uint64(i))
			probe := mustJSON(lclgrid.LabelRequest{
				Key: it.key, ProblemDef: it.def, Sides: []int{it.n, it.n}, Seed: it.seed,
				X: wr.IntN(it.n), Y: wr.IntN(it.n), W: min(labelWindow, it.n), H: min(labelWindow, it.n),
			})
			got, err = rp.window(rootProbe, probe, fleet)
			if err != nil {
				return nil, fmt.Errorf("probe window %d: %w", i, err)
			}
			halo = append(halo, got.halo)
		case kindLabel:
			got, err := rp.window(rootRequest, it.body, nil)
			if err != nil {
				return nil, fmt.Errorf("replaying window %d: %w", i, err)
			}
			if !slices.Equal(got.labels, s.out.labels) {
				fail("window %d: NewWindowEvaluator+LabelRect labels differ from the served answer", i)
			}
			ownTotals = append(ownTotals, got.total)
			halo = append(halo, got.halo)
			// Probe: a materialising solve of the same problem on a 32×32
			// torus with the same identifier seed.
			if _, err := rp.solve(rootProbe, mustJSON(lclgrid.SolveRequest{Key: it.key, N: 32, Seed: it.seed}), nil); err != nil {
				return nil, fmt.Errorf("probe solve %d: %w", i, err)
			}
		}
	}
	// Untraced Engine calls of the same requests: the in-process p50 the
	// HTTP p50 is compared with, and the base of the tracing overhead. A
	// fresh engine keeps novel problems novel.
	plain := eng
	if wl.fixed {
		plain = lclgrid.NewEngine()
	}
	var plainLats []float64
	for i, s := range direct {
		if !s.out.ok {
			continue
		}
		start := time.Now()
		var labels []int
		switch s.it.kind {
		case kindSolve:
			var req lclgrid.SolveRequest
			if err := json.Unmarshal(s.it.body, &req); err != nil {
				return nil, err
			}
			out, err := plain.Solve(ctx, req)
			if err != nil {
				return nil, fmt.Errorf("Engine.Solve of request %d: %w", i, err)
			}
			labels = out.Labels
		case kindLabel:
			var req lclgrid.LabelRequest
			if err := json.Unmarshal(s.it.body, &req); err != nil {
				return nil, err
			}
			out, err := plain.LabelWindow(ctx, req)
			if err != nil {
				return nil, fmt.Errorf("Engine.LabelWindow of request %d: %w", i, err)
			}
			labels = out.Labels
		}
		plainLats = append(plainLats, float64(time.Since(start))/float64(time.Millisecond))
		if !wl.fixed && !slices.Equal(labels, s.out.labels) {
			fail("request %d: in-process Engine answer differs from the served one", i)
		}
	}

	// Fleet store: the workload's records on fleet-novel; the catalogue
	// tables the warm workloads' servers hold otherwise.
	if !wl.fixed {
		for _, key := range eng.Registry().Keys() {
			spec, err := eng.Registry().Lookup(key)
			if err != nil {
				return nil, err
			}
			for _, a := range spec.Attempts {
				k := lclgrid.SynthKey{Fingerprint: spec.Problem().Fingerprint(), K: a.K, H: a.H, W: a.W}
				if v, ok := eng.Cache().Get(k); ok && v.Alg != nil {
					remote.Put(k, v)
				}
			}
		}
	}
	names, err := storeNames(c.cachesvc)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, errors.New("fleet store holds no records")
	}
	putBytes, err := storeCalls(ctx, tr, c.cachesvc, names, max(100, len(names)))
	if err != nil {
		return nil, err
	}

	// Per-layer metrics.
	own := tr.selfTimes(rootRequest)
	probe := tr.selfTimes(rootProbe)
	warm := tr.selfTimes(rootWarm)
	store := tr.selfTimes("store")
	perRoot := func(name string) float64 {
		for _, m := range []map[string]*layerStat{own, probe, warm, store} {
			if st := m[name]; st != nil && st.roots > 0 {
				return float64(st.self) / float64(st.roots) / float64(time.Millisecond)
			}
		}
		return 0
	}
	synthMap := own
	if _, ok := synthMap["synth.sweep"]; !ok {
		synthMap = warm
	}
	var satMs float64
	if sw, en := synthMap["synth.sweep"], synthMap["synth.enumerate"]; sw != nil && en != nil {
		satMs = float64(sw.self-en.self) / float64(sw.roots) / float64(time.Millisecond)
	}
	hits := metricDelta(before, after, "lclgrid_cache_hits_total")
	misses := metricDelta(before, after, "lclgrid_cache_misses_total")
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	sy := rp.synth
	m := map[string]metric{
		"server.overhead_ms":       {median(directLats) - median(plainLats), "ms"},
		"server.throttled":         {metricDelta(before, after, "lclgrid_http_throttled_total"), "count"},
		"solve.decode_ms":          {perRoot("solve.decode"), "ms"},
		"solve.plan_ms":            {perRoot("solve.plan"), "ms"},
		"solve.anchors_ms":         {perRoot("solve.anchors"), "ms"},
		"solve.apply_ms":           {perRoot("solve.apply"), "ms"},
		"solve.verify_ms":          {perRoot("solve.verify"), "ms"},
		"solve.encode_ms":          {perRoot("solve.encode"), "ms"},
		"solve.encode_bytes":       {median(rp.encoded), "bytes"},
		"cache.lookup_ms":          {perRoot("cache.lookup"), "ms"},
		"cache.hit_ratio":          {hitRatio, "ratio"},
		"cache.misses_per_request": {misses / float64(len(directLats)), "count"},
		"labels.decode_ms":         {perRoot("labels.decode"), "ms"},
		"labels.schedule_ms":       {perRoot("labels.schedule"), "ms"},
		"labels.window_ms":         {perRoot("labels.window"), "ms"},
		"labels.encode_ms":         {perRoot("labels.encode"), "ms"},
		"labels.halo_ratio":        {median(halo), "ratio"},
		"synth.compile_ms":         {perRoot("synth.compile"), "ms"},
		"synth.enumerate_ms":       {perRoot("synth.enumerate"), "ms"},
		"synth.sat_ms":             {satMs, "ms"},
		"synth.tiles":              {float64(sy.tiles) / float64(max(1, sy.tables)), "count"},
		"synth.conflicts":          {float64(sy.conflicts) / float64(max(1, sy.tables)), "count"},
		"synth.propagations":       {float64(sy.propagated) / float64(max(1, sy.tables)), "count"},
		"synth.shapes_per_table":   {float64(sy.shapes) / float64(max(1, sy.tables)), "ratio"},
		"gateway.forward_ms":       {median(gwLats) - median(directLats), "ms"},
		"remote.get_ms":            {perRoot("remote.get"), "ms"},
		"remote.put_ms":            {perRoot("remote.put"), "ms"},
		"remote.put_bytes":         {putBytes, "bytes"},
		"lease.acquire_ms":         {perRoot("lease.acquire"), "ms"},
		"cachesvc.lease_grants":    {metricDelta(before, after, "lclgrid_cachesvc_lease_grants_total") / float64(len(directLats)), "count"},
		"cachesvc.lease_conflicts": {metricDelta(before, after, "lclgrid_cachesvc_lease_conflicts_total") / float64(len(directLats)), "count"},
		"trace.overhead_ms":        {median(durationsMs(ownTotals)) - median(plainLats), "ms"},
		"host.probe_ms":            {median(cal.timing), "ms"},
	}
	// synth.compile on the warm workloads: their problems' definitions,
	// as the catalogue holds them.
	if perRoot("synth.compile") == 0 {
		m["synth.compile_ms"] = metric{compileCatalogue(tr, sample), "ms"}
	}
	res.Metrics = m

	leader := printSelfTimes(wl.name, own)
	if err := writeSpans(dir, wl.name, seed, tr, leader); err != nil {
		return nil, err
	}
	return res, nil
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// fleetTable fetches the table the fleet served a novel request with,
// from the fleet store, by the shape the answer's note names.
func fleetTable(remote *lclgrid.RemoteCache, it item, body []byte) (*lclgrid.Synthesized, error) {
	var a solveAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, err
	}
	var k, h, w, tiles int
	if _, err := fmt.Sscanf(a.Note, "k=%d window %dx%d, %d tiles", &k, &h, &w, &tiles); err != nil {
		return nil, fmt.Errorf("parsing note %q: %w", a.Note, err)
	}
	fp, err := it.def.Fingerprint()
	if err != nil {
		return nil, err
	}
	v, ok := remote.Get(lclgrid.SynthKey{Fingerprint: fp, K: k, H: h, W: w})
	if !ok || v.Alg == nil {
		return nil, fmt.Errorf("fleet store holds no table for k=%d %dx%d", k, h, w)
	}
	return v.Alg, nil
}

// compileCatalogue times Canonical, Compile and Fingerprint of the
// catalogue definitions the sample's requests name.
func compileCatalogue(tr *tracer, sample []item) float64 {
	id := tr.begin("compile")
	var total time.Duration
	for _, it := range sample {
		def := catalogueDefs[it.key]
		start := time.Now()
		tr.do("synth.compile", func() {
			canon, err := def.Canonical()
			if err == nil {
				_, _ = canon.Compile()
				_, _ = canon.Fingerprint()
			}
		})
		total += time.Since(start)
	}
	tr.end(id)
	return float64(total) / float64(len(sample)) / float64(time.Millisecond)
}

// printSelfTimes prints the self time per layer of the workload's own
// requests, largest first, and returns the leading layer. The sweep's
// own tile enumeration is counted once, under synth.enumerate; its SAT
// share shows as synth.sat.
func printSelfTimes(name string, own map[string]*layerStat) string {
	type row struct {
		name string
		ms   float64
	}
	var rows []row
	var total float64
	for n, st := range own {
		self := st.self
		if n == "synth.sweep" {
			n = "synth.sat"
			if en := own["synth.enumerate"]; en != nil {
				self -= en.self
			}
		}
		ms := float64(self) / float64(time.Millisecond)
		rows = append(rows, row{n, ms})
		total += ms
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ms > rows[j].ms })
	fmt.Fprintf(os.Stderr, "perfbench: %s self time per layer (own requests):\n", name)
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "  %-18s %10.2f ms  %5.1f%%\n", r.name, r.ms, 100*r.ms/total)
	}
	if len(rows) == 0 {
		return ""
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s leads\n", name, rows[0].name)
	return rows[0].name
}

// writeSpans writes the recorded spans as JSON under dir.
func writeSpans(dir, name string, seed int64, tr *tracer, leader string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Leader   string `json:"leader"`
		Spans    []span `json:"spans"`
	}{name, seed, leader, tr.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)), data, 0o644)
}
