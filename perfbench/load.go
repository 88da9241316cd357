package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	lclgrid "lclgrid"
)

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
}

// post sends one request body and returns the status and response body.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// tables resolves the checking table of a request: the registered
// problem's definition, fetched once from the server, or the inline
// definition the request carries.
type tables struct {
	mu     sync.Mutex
	server string
	client *http.Client
	byKey  map[string]*table
}

func newTables(server string) *tables {
	return &tables{server: server, client: newClient(), byKey: make(map[string]*table)}
}

func (ts *tables) forItem(it item) (*table, error) {
	if it.def != nil {
		return newTable(it.def)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if t, ok := ts.byKey[it.key]; ok {
		return t, nil
	}
	resp, err := ts.client.Get(ts.server + "/v1/problems/" + it.key)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/problems/%s: %s", it.key, resp.Status)
	}
	var doc struct {
		Def *lclgrid.ProblemDef `json:"def"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.Def == nil {
		return nil, fmt.Errorf("GET /v1/problems/%s: no definition (%v)", it.key, err)
	}
	t, err := newTable(doc.Def)
	if err != nil {
		return nil, err
	}
	ts.byKey[it.key] = t
	return t, nil
}

// outcome is the fate of one request.
type outcome struct {
	lat    time.Duration
	ok     bool
	labels []int
	body   []byte
	wrong  bool // answered 200 but failed a check
	err    string
}

// send performs one request and judges the answer. Anything but a 200
// whose body passes the checks counts as failed: 429s, 5xx, transport
// errors and wrong answers alike.
func send(ctx context.Context, client *http.Client, target string, it item, ts *tables) outcome {
	start := time.Now()
	status, body, err := post(ctx, client, target+it.path, it.body)
	o := outcome{lat: time.Since(start), body: body}
	switch {
	case err != nil:
		o.err = err.Error()
	case status != http.StatusOK:
		o.err = fmt.Sprintf("status %d: %.200s", status, body)
	default:
		tbl, terr := ts.forItem(it)
		if terr != nil {
			o.err = terr.Error()
			break
		}
		labels, cerr := check(it, tbl, body)
		if cerr != nil {
			o.err, o.wrong = "wrong answer: "+cerr.Error(), true
			break
		}
		o.ok, o.labels = true, labels
	}
	return o
}

// loadResult summarises one closed-loop run.
type loadResult struct {
	attempted, failed int
	wrong             int       // failures that were wrong answers
	lats              []float64 // ms, correct responses only, sorted
	elapsed           time.Duration
	errs              []string // the first few failures
}

// Measured runs alternate loadSlice of load with calibSlice of idle
// probing, so that the probe samples the host at the same moments the
// run does.
const (
	loadSlice  = 2 * time.Second
	calibSlice = 400 * time.Millisecond
)

// minSamples is the fewest correct responses a duration run collects,
// so that at least ten lie beyond p99: on a slow host the run goes on
// past its duration until it has them (up to three times the duration).
const minSamples = 1000

// closedLoop runs wl.clients clients, each sending its next request only
// after the previous one is answered. Requests are taken in index order
// from one seeded stream. A duration run stops after dur of load (see
// minSamples); a fixed run sends exactly the items given. With a
// calibrator the load pauses every loadSlice — clients finish the
// request in flight and wait — while the probe runs on the idle host;
// elapsed counts load time only.
func closedLoop(ctx context.Context, target string, wl *workload, seed int64, stream uint64,
	dur time.Duration, fixed []item, ts *tables, cal *calibrator) loadResult {
	var (
		res      loadResult
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		paused   bool
		stopped  bool
		inflight int
		next     uint64
		wg       sync.WaitGroup
	)
	for range wl.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for {
				mu.Lock()
				for paused && !stopped {
					cond.Wait()
				}
				if stopped || ctx.Err() != nil || (fixed != nil && next >= uint64(len(fixed))) {
					mu.Unlock()
					return
				}
				i := next
				next++
				inflight++
				mu.Unlock()
				it := item{}
				if fixed != nil {
					it = fixed[i]
				} else {
					it = wl.request(seed, stream, i)
				}
				o := send(ctx, client, target, it, ts)
				mu.Lock()
				inflight--
				res.attempted++
				if o.ok {
					res.lats = append(res.lats, float64(o.lat)/float64(time.Millisecond))
				} else {
					res.failed++
					if o.wrong {
						res.wrong++
					}
					if len(res.errs) < 5 {
						res.errs = append(res.errs, o.err)
					}
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	clientsDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(clientsDone)
	}()
	slice := loadSlice
	if cal == nil {
		slice = 24 * time.Hour // no pauses
	}
	for {
		window := slice
		if fixed == nil && res.elapsed < dur {
			window = min(slice, dur-res.elapsed)
		}
		start := time.Now()
		finished := false
		select {
		case <-clientsDone:
			finished = true
		case <-ctx.Done():
			finished = true
		case <-time.After(window):
		}
		mu.Lock()
		paused = true
		for inflight > 0 {
			cond.Wait()
		}
		res.elapsed += time.Since(start)
		if fixed == nil && res.elapsed >= dur && (len(res.lats) >= minSamples || res.elapsed >= 3*dur) {
			finished = true
		}
		if finished {
			stopped = true
			cond.Broadcast()
		}
		mu.Unlock()
		if cal != nil {
			cal.run(calibSlice)
		}
		if finished {
			break
		}
		mu.Lock()
		paused = false
		cond.Broadcast()
		mu.Unlock()
	}
	<-clientsDone
	sort.Float64s(res.lats)
	return res
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of ascending samples
// and the number of samples beyond it. A percentile is only reported
// when at least minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, int, error) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, fmt.Errorf("no samples")
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	rank = max(1, min(n, rank))
	beyond := n - rank
	if q < 1 && beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, needs %d", q*100, n, beyond, minBeyond)
	}
	return sorted[rank-1], beyond, nil
}

// median returns the middle of unsorted values (mean of the two middle
// ones for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
