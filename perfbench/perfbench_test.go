package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	lclgrid "lclgrid"
)

func TestSameSeedSameRequests(t *testing.T) {
	for _, wl := range workloads {
		for i := range uint64(200) {
			a, b := wl.request(7, 0, i), wl.request(7, 0, i)
			if !bytes.Equal(a.body, b.body) {
				t.Fatalf("%s request %d differs between two generations with seed 7", wl.name, i)
			}
		}
	}
}

func TestDifferentSeedDifferentRequests(t *testing.T) {
	for _, wl := range workloads {
		same := 0
		for i := range uint64(200) {
			if bytes.Equal(wl.request(7, 0, i).body, wl.request(8, 0, i).body) {
				same++
			}
		}
		if same > 2 {
			t.Errorf("%s: %d of 200 requests identical under seeds 7 and 8", wl.name, same)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	for _, wl := range workloads {
		if bytes.Equal(wl.request(7, 0, 0).body, wl.request(7, 1, 0).body) &&
			bytes.Equal(wl.request(7, 0, 1).body, wl.request(7, 1, 1).body) {
			t.Errorf("%s: warm-up stream repeats the measured stream", wl.name)
		}
	}
}

// A relabelled definition is a new problem to every cache, but the same
// constraint system index for index, so fleet-novel's difficulty does
// not depend on the seed.
func TestRelabelFreshFingerprintSameTables(t *testing.T) {
	for key, def := range catalogueDefs {
		base, err := def.Compile()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{base.Fingerprint(): true}
		for _, tag := range []string{"a.0.0", "b.0.1", "a.2.0"} {
			nd := relabel(def, tag)
			fp, err := nd.Fingerprint()
			if err != nil {
				t.Fatalf("%s/%s: %v", key, tag, err)
			}
			if seen[fp] {
				t.Errorf("%s/%s: fingerprint %s not fresh", key, tag, fp[:12])
			}
			seen[fp] = true
			p, err := nd.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if p.K() != base.K() || p.Dims() != base.Dims() {
				t.Fatalf("%s/%s: shape %d/%d, want %d/%d", key, tag, p.K(), p.Dims(), base.K(), base.Dims())
			}
			for a := range p.K() {
				if p.NodeOK(a) != base.NodeOK(a) {
					t.Errorf("%s/%s: node_ok differs at label %d", key, tag, a)
				}
				for b := range p.K() {
					for dim := range p.Dims() {
						if p.Allowed(dim, a, b) != base.Allowed(dim, a, b) {
							t.Errorf("%s/%s: relation differs at dim %d (%d,%d)", key, tag, dim, a, b)
						}
					}
				}
			}
		}
	}
}

func TestNovelRequestsAreDistinctProblems(t *testing.T) {
	wl, err := workloadByName("fleet-novel")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range uint64(300) {
		fp, err := wl.request(3, 0, i).def.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if seen[fp] {
			t.Fatalf("request %d repeats a problem", i)
		}
		seen[fp] = true
	}
}

// The mixes put p50 and p99 inside one cost mode each: on labels-warm
// the 10^6 torus is the top 5% (p99 lies well inside it) and the 10^5
// torus the bulk; on fleet-novel 4col is one request in thirteen.
func TestMixShares(t *testing.T) {
	const n = 20000
	labels, _ := workloadByName("labels-warm")
	huge, mid := 0, 0
	for i := range uint64(n) {
		switch labels.request(5, 0, i).sides[0] {
		case 1_000_000:
			huge++
		case 100_000:
			mid++
		}
	}
	if s := float64(huge) / n; math.Abs(s-0.05) > 0.001 {
		t.Errorf("10^6 torus share %.3f, want 0.05", s)
	}
	if s := float64(mid) / n; math.Abs(s-0.75) > 0.001 {
		t.Errorf("10^5 torus share %.3f, want 0.75", s)
	}
	novel, _ := workloadByName("fleet-novel")
	four := 0
	for i := range uint64(n) {
		if novel.request(5, 0, i).base == "4col" {
			four++
		}
	}
	if s := float64(four) / n; math.Abs(s-1.0/13) > 0.001 {
		t.Errorf("4col share %.3f, want %.3f", s, 1.0/13)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	v, beyond, err := percentile(mk(1000), 0.99)
	if err != nil || v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond (%v), want 990 with 10", v, beyond, err)
	}
	if _, beyond, err := percentile(mk(999), 0.99); err == nil {
		t.Errorf("p99 of 999 samples accepted with %d beyond", beyond)
	}
	if v, _, err := percentile(mk(1000), 0.5); err != nil || v != 500 {
		t.Errorf("p50 of 1..1000 = %v (%v), want 500", v, err)
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestCheckCatchesWrongAnswers(t *testing.T) {
	tbl, err := newTable(catalogueDefs["5col"])
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	good := make([]int, n*n)
	for y := range n {
		for x := range n {
			good[y*n+x] = (x + 2*y) % 5 // a proper 5-colouring of the torus
		}
	}
	if err := tbl.checkGrid(good, n, n, true); err != nil {
		t.Fatalf("proper colouring rejected: %v", err)
	}
	bad := append([]int(nil), good...)
	bad[5] = bad[6]
	if err := tbl.checkGrid(bad, n, n, true); err == nil {
		t.Error("clash between horizontal neighbours accepted")
	}
	if err := tbl.checkGrid(good[:n*n-1], n, n, true); err == nil {
		t.Error("short labelling accepted")
	}
	it := item{kind: kindSolve, n: n}
	if _, err := check(it, tbl, mustJSON(lclgrid.Result{Labels: good, Verification: lclgrid.Unverified})); err == nil {
		t.Error("unverified solve accepted")
	}
	if _, err := check(it, tbl, mustJSON(lclgrid.Result{Labels: good, Verification: lclgrid.Verified})); err != nil {
		t.Errorf("verified proper solve rejected: %v", err)
	}
}

// fakeServer answers GET /v1/problems/5col and 12×12 5col solves: 429
// for seeds divisible by 7, a clashing labelling for other multiples of
// 5, a proper one otherwise.
func fakeServer() *httptest.Server {
	const n = 12
	proper := make([]int, n*n)
	for y := range n {
		for x := range n {
			proper[y*n+x] = (x + 2*y) % 5
		}
	}
	clash := append([]int(nil), proper...)
	clash[0] = clash[1]
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			_ = json.NewEncoder(w).Encode(map[string]any{"def": catalogueDefs["5col"]})
			return
		}
		var req lclgrid.SolveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch {
		case req.Seed%7 == 0:
			http.Error(w, "busy", http.StatusTooManyRequests)
		case req.Seed%5 == 0:
			_ = json.NewEncoder(w).Encode(lclgrid.Result{Labels: clash, Verification: lclgrid.Verified})
		default:
			_ = json.NewEncoder(w).Encode(lclgrid.Result{Labels: proper, Verification: lclgrid.Verified})
		}
	}))
}

func solveItem(seed int64) item {
	return item{
		kind: kindSolve, path: "/v1/solve", key: "5col", n: 12, seed: seed,
		body: mustJSON(lclgrid.SolveRequest{Key: "5col", N: 12, Seed: seed}),
	}
}

// The closed loop counts refusals and wrong answers as failed, and only
// wrong answers as incorrect, with both clients sharing one tally.
func TestClosedLoopCountsFailures(t *testing.T) {
	srv := fakeServer()
	defer srv.Close()
	var items []item
	for s := int64(1); s <= 50; s++ {
		items = append(items, solveItem(s))
	}
	wl := &workload{name: "test", clients: 2}
	res := closedLoop(context.Background(), srv.URL, wl, 1, 0, 0, items, newTables(srv.URL), newCalibrator())
	// Seeds divisible by 7 are refused (7 of them); the other multiples
	// of 5 get a clashing labelling (9 of them).
	if res.attempted != 50 || res.failed != 16 || res.wrong != 9 || len(res.lats) != 34 {
		t.Errorf("attempted %d failed %d wrong %d latencies %d, want 50 16 9 34",
			res.attempted, res.failed, res.wrong, len(res.lats))
	}
}

// A duration run that has too few samples for its p99 at the end of its
// duration goes on until it has them.
func TestClosedLoopRunsOnForSamples(t *testing.T) {
	srv := fakeServer()
	defer srv.Close()
	// Seed 1 always answers properly.
	wl := &workload{name: "test", clients: 2, request: func(int64, uint64, uint64) item { return solveItem(1) }}
	res := closedLoop(context.Background(), srv.URL, wl, 1, 0, 10*time.Millisecond, nil, newTables(srv.URL), newCalibrator())
	if res.failed != 0 || len(res.lats) < minSamples {
		t.Errorf("%d failed, %d samples after %v of load, want 0 and at least %d", res.failed, len(res.lats), res.elapsed, minSamples)
	}
}
