package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkDef is the part of BENCHMARK.json the report reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Python's statistics.quantiles(values, n=4) with its
// default exclusive method, the quartiles the benchmark's spreads are
// judged by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	q := make([]float64, 0, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(ld-1, j))
		delta := i*m - j*n
		q = append(q, (data[j-1]*float64(n-delta)+data[j]*float64(delta))/n)
	}
	return q[0], q[1], q[2]
}

// parseSeeds reads "1-10" or "1,2,5".
func parseSeeds(s string) ([]int64, error) {
	if lo, hi, ok := strings.Cut(s, "-"); ok {
		a, err1 := strconv.ParseInt(lo, 10, 64)
		b, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("bad seed range %q", s)
		}
		var out []int64
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
		return out, nil
	}
	var out []int64
	for _, f := range strings.Split(s, ",") {
		x, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, x)
	}
	return out, nil
}

// runChild runs one measured run as a separate process, exactly as the
// benchmark is invoked, and returns its result line.
func runChild(ctx context.Context, bin, workload string, seed int64, seconds int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "--bin", bin, "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line %q: %w", workload, seed, last, err)
	}
	return &res, nil
}

// runReport measures every workload (or the one named) in sets: each
// set runs once per seed. For each set and end-to-end metric it prints
// the median, the quartiles, the interquartile spread and the min/max
// spread as shares of the median, next to the metric's bound, and it
// compares every later set's median with the first set's — the checks
// the benchmark's bounds are set by.
func runReport(ctx context.Context, bin, specPath, only, seedList string, sets, seconds int) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	seeds, err := parseSeeds(seedList)
	if err != nil {
		return err
	}
	for _, w := range def.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		// values[set][metric] over the set's runs
		values := make([]map[string][]float64, sets)
		for s := range sets {
			values[s] = make(map[string][]float64)
			for _, seed := range seeds {
				res, err := runChild(ctx, bin, w.Name, seed, seconds)
				if err != nil {
					return err
				}
				if !res.Correct || res.Failed > 0 {
					fmt.Printf("%s seed %d: correct=%v failed=%d of %d\n", w.Name, seed, res.Correct, res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					values[s][name] = append(values[s][name], m.Value)
				}
			}
		}
		fmt.Printf("\n== %s: %d set(s) of %d runs, seeds %v, %ds each\n", w.Name, sets, len(seeds), seeds, seconds)
		fmt.Printf("%-16s %-5s %5s  %11s %11s %11s %7s %7s %8s\n",
			"metric", "set", "bound", "median", "q1", "q3", "iqr%", "range%", "vs set1%")
		for _, m := range def.EndToEnd {
			var first float64
			for s := range sets {
				vs := values[s][m.Name]
				if len(vs) == 0 {
					return fmt.Errorf("%s: no values for %s", w.Name, m.Name)
				}
				q1, med, q3 := quartiles(vs)
				lo, hi := minMax(vs)
				if s == 0 {
					first = med
				}
				worse := (med - first) / first
				if m.Better == "higher" {
					worse = -worse
				}
				flag := ""
				if m.Name != "setup_s" && (q3-q1)/med > m.Bound/3 {
					flag += " iqr>bound/3"
				}
				if worse > m.Bound {
					flag += " worse>bound"
				}
				fmt.Printf("%-16s %-5d %5.2f  %11.4f %11.4f %11.4f %7.2f %7.2f %8.2f%s\n",
					m.Name, s+1, m.Bound, med, q1, q3, 100*(q3-q1)/med, 100*(hi-lo)/med, 100*worse, flag)
				fmt.Printf("%22s runs: %.4g\n", "", vs)
			}
		}
	}
	return nil
}

func minMax(xs []float64) (float64, float64) {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
