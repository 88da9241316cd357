package main

import (
	"encoding/json"
	"fmt"

	lclgrid "lclgrid"
)

// table is a problem definition as lookup tables over label indices:
// the independent oracle every answer is judged with.
type table struct {
	k      int
	nodeOK []bool
	allow  [2][]bool // allow[dim][a*k+b]: b may follow a in direction dim
}

func newTable(def *lclgrid.ProblemDef) (*table, error) {
	if def.Dims != 2 || len(def.Allow) != 2 {
		return nil, fmt.Errorf("problem %q is not 2-dimensional", def.Name)
	}
	k := len(def.Labels)
	idx := make(map[string]int, k)
	for i, l := range def.Labels {
		idx[l] = i
	}
	t := &table{k: k, nodeOK: make([]bool, k)}
	for a := range t.nodeOK {
		t.nodeOK[a] = def.NodeOK == nil
	}
	for _, l := range def.NodeOK {
		t.nodeOK[idx[l]] = true
	}
	for dim := range 2 {
		t.allow[dim] = make([]bool, k*k)
		for _, p := range def.Allow[dim] {
			a, okA := idx[p.A]
			b, okB := idx[p.B]
			if !okA || !okB {
				return nil, fmt.Errorf("problem %q allows a pair outside its alphabet", def.Name)
			}
			t.allow[dim][a*k+b] = true
		}
	}
	return t, nil
}

// checkGrid checks a w×h row-major labelling: every label valid on its
// own, every horizontal and vertical neighbour pair allowed. With wrap
// the grid is a whole torus and pairs wrap around its edges; without,
// only interior pairs of the window are checked.
func (t *table) checkGrid(labels []int, w, h int, wrap bool) error {
	if len(labels) != w*h {
		return fmt.Errorf("got %d labels for a %dx%d grid", len(labels), w, h)
	}
	for _, a := range labels {
		if a < 0 || a >= t.k || !t.nodeOK[a] {
			return fmt.Errorf("label %d is not valid on a node", a)
		}
	}
	for y := range h {
		for x := range w {
			a := labels[y*w+x]
			if x+1 < w || wrap {
				if b := labels[y*w+(x+1)%w]; !t.allow[0][a*t.k+b] {
					return fmt.Errorf("pair (%d,%d) at x=%d y=%d not allowed in dimension 0", a, b, x, y)
				}
			}
			if y+1 < h || wrap {
				if b := labels[((y+1)%h)*w+x]; !t.allow[1][a*t.k+b] {
					return fmt.Errorf("pair (%d,%d) at x=%d y=%d not allowed in dimension 1", a, b, x, y)
				}
			}
		}
	}
	return nil
}

// solveAnswer and labelAnswer are the response fields the checks read.
type solveAnswer struct {
	Labels       []int  `json:"labels"`
	Verification string `json:"verification"`
	Note         string `json:"note"`
}

type labelAnswer struct {
	Labels []int `json:"labels"`
	W      int   `json:"w"`
	H      int   `json:"h"`
	Stats  struct {
		WindowNodes int `json:"window_nodes"`
		HaloNodes   int `json:"halo_nodes"`
	} `json:"stats"`
}

// check judges one 200 response body and returns the labels it carried.
// A solve must be verified by the server and carry n² labels that form
// a valid labelling of the whole torus; a window must carry w·h labels
// whose interior pairs are all allowed.
func check(it item, tbl *table, body []byte) ([]int, error) {
	switch it.kind {
	case kindSolve:
		var a solveAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, fmt.Errorf("decoding solve response: %w", err)
		}
		if a.Verification != "verified" {
			return nil, fmt.Errorf("solve answered %q, not verified", a.Verification)
		}
		if err := tbl.checkGrid(a.Labels, it.n, it.n, true); err != nil {
			return nil, err
		}
		return a.Labels, nil
	case kindLabel:
		var a labelAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, fmt.Errorf("decoding label response: %w", err)
		}
		if a.W != it.w || a.H != it.h {
			return nil, fmt.Errorf("window is %dx%d, asked for %dx%d", a.W, a.H, it.w, it.h)
		}
		if err := tbl.checkGrid(a.Labels, it.w, it.h, false); err != nil {
			return nil, err
		}
		return a.Labels, nil
	}
	return nil, fmt.Errorf("unknown request kind %q", it.kind)
}
