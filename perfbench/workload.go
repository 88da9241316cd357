package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	lclgrid "lclgrid"
)

// A workload is one seeded traffic mix. Every request is a pure function
// of (seed, stream, index), so the same seed always yields byte-identical
// request bodies and a traced run can replay exactly the requests the
// measured run sent.
type workload struct {
	name    string
	clients int // closed-loop clients
	// fixed is true when a run sends a fixed seeded list (fixedPerSecond
	// requests per second of --seconds) instead of running for a duration.
	fixed bool
	// request builds request i of a stream; stream 0 is measured, other
	// streams feed warm-up and the traced run's gateway comparison.
	request func(seed int64, stream, i uint64) item
}

// Kinds of request.
const (
	kindSolve = "solve"
	kindLabel = "label"
)

// item is one request: its wire body and what the checker needs to
// judge the answer.
type item struct {
	kind string
	path string // "/v1/solve" or "/v1/labels"
	body []byte
	key  string              // registered key ("" for an inline problem)
	def  *lclgrid.ProblemDef // inline definition (fleet-novel)
	base string              // catalogue key a novel problem relabels
	n    int                 // square torus side (solve)
	// label window
	sides [2]int
	w, h  int
	seed  int64
}

// fixedPerSecond sizes a fixed-list run: the list holds this many
// requests per second of --seconds, whatever the program's speed, so a
// faster commit answers the same requests (and grows the same caches).
const fixedPerSecond = 70

var workloads = []*workload{
	{
		name: "solve-warm", clients: 2,
		request: solveWarmRequest,
	},
	{
		name: "labels-warm", clients: 2,
		request: labelsWarmRequest,
	},
	{
		name: "fleet-novel", clients: 1, fixed: true,
		request: fleetNovelRequest,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// rngFor returns the generator of request i of a stream.
func rngFor(seed int64, stream, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed)^stream*0x9e3779b97f4a7c15, i))
}

// stratified returns the category of request i when categories have the
// given integer weights: each block of sum(weights) consecutive requests
// holds every category exactly weight times, in a seeded order. A run's
// mix then matches the weights up to one partial block, so the cost
// modes keep their shares from run to run instead of drifting with
// sampling noise.
func stratified(seed int64, stream, i uint64, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	block, pos := i/uint64(total), int(i%uint64(total))
	perm := rand.New(rand.NewPCG(uint64(seed)^stream*0x9e3779b97f4a7c15^0x5bd1e995, block)).Perm(total)
	slot := perm[pos]
	for c, w := range weights {
		if slot < w {
			return c
		}
		slot -= w
	}
	panic("unreachable")
}

// idSeed draws a non-zero identifier seed (zero selects sequential ids).
func idSeed(r *rand.Rand) int64 { return 1 + r.Int64N(1<<31) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// solveWarmKeys are the registered keys solve-warm draws from, with the
// smallest side each serves from its cached normal form (4col needs 28
// for k=3; below that the Θ(n) fallback runs, which has no cache).
var solveWarmKeys = []struct {
	key     string
	minSide int
}{
	{"4col", 28}, {"5col", 12}, {"mis", 12}, {"orient134", 12}, {"orient013", 12}, {"is", 12},
}

const solveMaxSide = 64

func solveWarmRequest(seed int64, stream, i uint64) item {
	r := rngFor(seed, stream, i)
	k := solveWarmKeys[stratified(seed, stream, i, []int{1, 1, 1, 1, 1, 1})]
	n := k.minSide + r.IntN(solveMaxSide-k.minSide+1)
	s := idSeed(r)
	return item{
		kind: kindSolve, path: "/v1/solve", key: k.key, n: n, seed: s,
		body: mustJSON(lclgrid.SolveRequest{Key: k.key, N: n, Seed: s}),
	}
}

// labelTorus is one of labels-warm's huge tori and its share of windows.
type labelTorus struct {
	side   int
	weight int // out of 20
}

// labelTori are weighted so that p50 and p99 each sit well inside one
// cost mode. Windows cost 2-18 ms on 10^4, 8-20 ms on 10^5, 30-45 ms on
// 3·10^5 and ≈150 ms on 10^6 (schedule-bound). With these weights the
// median falls in the middle of the 10^5 non-4col mode (8-63% of
// requests) and p99 in the 10^6 mode (the top 5%).
var labelTori = []labelTorus{
	{10_000, 2}, {100_000, 15}, {316_228, 2}, {1_000_000, 1},
}

var labelKeys = []string{"mis", "4col", "5col", "orient134"}

const labelWindow = 16

func labelsWarmRequest(seed int64, stream, i uint64) item {
	r := rngFor(seed, stream, i)
	// Every (torus, key) pair is one category, weighted by the torus.
	weights := make([]int, 0, len(labelTori)*len(labelKeys))
	for _, t := range labelTori {
		for range labelKeys {
			weights = append(weights, t.weight)
		}
	}
	c := stratified(seed, stream, i, weights)
	ti, key := c/len(labelKeys), labelKeys[c%len(labelKeys)]
	t := labelTori[ti]
	// The four tori, identifier assignments included, are the same for
	// every seed: each serves many windows, and a run's cost does not
	// depend on four draws of whole-torus assignments. The seed moves
	// the windows and their order.
	ts := int64(ti + 1)
	x, y := r.IntN(t.side), r.IntN(t.side)
	return item{
		kind: kindLabel, path: "/v1/labels", key: key,
		sides: [2]int{t.side, t.side}, w: labelWindow, h: labelWindow, seed: ts,
		body: mustJSON(lclgrid.LabelRequest{
			Key: key, Sides: []int{t.side, t.side}, Seed: ts,
			X: x, Y: y, W: labelWindow, H: labelWindow,
		}),
	}
}

// novelBases are the catalogue problems fleet-novel relabels, at fixed
// weights: one 4col (≈95 ms, k=3) per twelve others (2-8 ms), so p50
// sits in the fast mode and p99 in the 4col mode.
var novelBases = []struct {
	key    string
	weight int // out of 13
}{
	{"5col", 3}, {"mis", 3}, {"orient134", 3}, {"orient013", 3}, {"4col", 1},
}

const novelMinSide, novelMaxSide = 28, 40

// catalogueDefs holds the table form of every catalogue problem the
// workloads name, taken from the default registry.
var catalogueDefs = func() map[string]*lclgrid.ProblemDef {
	reg := lclgrid.DefaultRegistry()
	out := make(map[string]*lclgrid.ProblemDef)
	for _, key := range []string{"4col", "5col", "mis", "orient134", "orient013", "is"} {
		spec, err := reg.Lookup(key)
		if err != nil {
			panic(err)
		}
		out[key] = lclgrid.NewProblemDef(spec.Problem())
	}
	return out
}()

// relabel renames every label of def with a suffix unique to tag,
// keeping the alphabet order. The fingerprint hashes label names, so the
// result is a problem no cache has seen, while its relation tables are
// index-for-index those of def: the synthesis work does not depend on
// the tag.
func relabel(def *lclgrid.ProblemDef, tag string) *lclgrid.ProblemDef {
	m := make(map[string]string, len(def.Labels))
	out := &lclgrid.ProblemDef{Name: "novel " + tag, Dims: def.Dims}
	for _, l := range def.Labels {
		m[l] = l + "~" + tag
		out.Labels = append(out.Labels, m[l])
	}
	for _, pairs := range def.Allow {
		np := make([]lclgrid.LabelPair, len(pairs))
		for i, p := range pairs {
			np[i] = lclgrid.LabelPair{A: m[p.A], B: m[p.B]}
		}
		out.Allow = append(out.Allow, np)
	}
	if def.NodeOK != nil {
		out.NodeOK = []string{}
		for _, l := range def.NodeOK {
			out.NodeOK = append(out.NodeOK, m[l])
		}
	}
	return out
}

func fleetNovelRequest(seed int64, stream, i uint64) item {
	r := rngFor(seed, stream, i)
	weights := make([]int, len(novelBases))
	for i, b := range novelBases {
		weights[i] = b.weight
	}
	base := novelBases[stratified(seed, stream, i, weights)].key
	// The index and stream make the tag unique within a run; the random
	// part makes it differ between seeds.
	tag := fmt.Sprintf("%08x.%d.%d", r.Uint32(), stream, i)
	def := relabel(catalogueDefs[base], tag)
	n := novelMinSide + r.IntN(novelMaxSide-novelMinSide+1)
	s := idSeed(r)
	return item{
		kind: kindSolve, path: "/v1/solve", def: def, base: base, n: n, seed: s,
		body: mustJSON(lclgrid.SolveRequest{ProblemDef: def, N: n, Seed: s}),
	}
}
