// Command perfbench is lclgrid's end-to-end benchmark. It starts the real
// lclgrid binaries, drives one seeded closed-loop workload over HTTP,
// checks every answer, and prints one JSON result as the last line of
// stdout:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"latency_p50_ms":{"value":…,"unit":"ms"},…}}
//
// With --trace 0 the metrics are the end-to-end ones, their times scaled
// to the reference host speed (see calib.go); with --trace 1 a
// separate traced run replays the same seeded requests in-process
// through each layer's public functions and reports per-layer metrics.
// --report runs the command repeatedly over several seeds and prints the
// steadiness of every end-to-end metric next to its bound. See README.md
// for the workloads and the layer-to-metric map. Build and run it with
// perfbench/run.sh from the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many times a run starts its processes; setup_s is the
// median, and the last start serves the run. Before each start the host
// is probed for setupCalib.
const (
	setupRuns  = 11
	setupCalib = 60 * time.Millisecond
)

func main() {
	var (
		bin      = flag.String("bin", ".bench_build/lclgrid", "lclgrid binary to benchmark")
		name     = flag.String("workload", "", "workload: solve-warm, labels-warm or fleet-novel")
		seed     = flag.Int64("seed", 1, "seed of the generated requests")
		seconds  = flag.Int("seconds", 15, "measured duration of a run (fleet-novel: sizes its fixed list)")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		report   = flag.Bool("report", false, "print the steadiness report instead of one result")
		seeds    = flag.String("seeds", "1-10", `report: seeds of one set, "1-10" or "1,2,5"`)
		sets     = flag.Int("sets", 2, "report: sets of runs per workload, each running every seed once")
		spec     = flag.String("benchmark", "BENCHMARK.json", "report: benchmark definition holding the bounds")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "traced run: where spans are written")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *report {
		if err := runReport(ctx, *bin, *spec, *name, *seeds, *sets, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(ctx, *bin, wl, *seed, dur, *traceDir)
	} else {
		res, err = runMeasured(ctx, *bin, wl, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// fixedList returns a fixed-list workload's requests for a run.
func fixedList(wl *workload, seed int64, stream uint64, n int) []item {
	items := make([]item, n)
	for i := range items {
		items[i] = wl.request(seed, stream, uint64(i))
	}
	return items
}

// warmupPerClient requests per client run before measuring, from their
// own stream: connections open and the heap reaches its working size.
const warmupPerClient = 20

// runMeasured is the untraced run: set-up timed setupRuns times, a
// warm-up, then the measured closed loop.
func runMeasured(ctx context.Context, bin string, wl *workload, seed int64, dur time.Duration) (*result, error) {
	var setups []float64
	var c *cluster
	setupCal := newCalibrator()
	for i := range setupRuns {
		setupCal.run(setupCalib)
		t0 := time.Now()
		cl, err := startCluster(ctx, bin, wl)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			cl.stop()
			continue
		}
		c = cl
	}
	defer c.stop()
	ts := newTables(c.shards[0])

	warm := closedLoop(ctx, c.target, wl, seed, 1, 0, fixedList(wl, seed, 1, warmupPerClient*wl.clients), ts, nil)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", warm.failed, warm.attempted, warm.errs)
	}
	var fixed []item
	if wl.fixed {
		fixed = fixedList(wl, seed, 0, fixedPerSecond*int(dur/time.Second))
	}
	cal := newCalibrator()
	lr := closedLoop(ctx, c.target, wl, seed, 0, dur, fixed, ts, cal)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var rss int64
	for _, p := range c.procs {
		b, err := p.peakRSS()
		if err != nil {
			return nil, err
		}
		rss += b
	}
	correct := lr.attempted - lr.failed
	p50, _, err := percentile(lr.lats, 0.50)
	if err != nil {
		return nil, err
	}
	p99, beyond, err := percentile(lr.lats, 0.99)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	rps, setup := float64(correct)/lr.elapsed.Seconds(), median(setups)
	slow, setupSlow := cal.speed(), setupCal.speed()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d attempted, %d failed, %d latency samples (%d beyond p99) in %.2fs of load\n",
		wl.name, seed, lr.attempted, lr.failed, len(lr.lats), beyond, lr.elapsed.Seconds())
	fmt.Fprintf(os.Stderr, "perfbench: raw: throughput %.2f/s, p50 %.3f ms, p99 %.3f ms, setup %.4f s (of %v); host slowdown %.3f (%d probes), at set-up %.3f\n",
		rps, p50, p99, setup, setups, slow, len(cal.timing), setupSlow)
	for _, e := range lr.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", e)
	}
	return &result{
		Correct:   lr.wrong == 0,
		Attempted: lr.attempted,
		Failed:    lr.failed,
		Metrics: map[string]metric{
			"throughput_rps": {rps * slow, "1/s"},
			"latency_p50_ms": {p50 / slow, "ms"},
			"latency_p99_ms": {p99 / slow, "ms"},
			"success_rate":   {float64(correct) / float64(lr.attempted), "ratio"},
			"setup_s":        {setup / setupSlow, "s"},
			"peak_rss_mb":    {float64(rss) / (1 << 20), "MB"},
		},
	}, nil
}
