package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// A host that shares its CPUs with other machines drifts in speed: on a
// shared 2-core 2.1 GHz Xeon VM a fixed CPU-bound loop read 1.5× slower,
// and a whole run 2× slower, for minutes at a time. Every run therefore
// times a fixed probe — perfbench's own code, independent of lclgrid,
// identical on every commit — in idle pauses spread over the run, and
// reports its timings at the reference host speed: times scaled by
// refProbeMs/probe, rates by probe/refProbeMs. A program change moves the
// scaled figures as it moves the raw ones; a slower host moves both the
// run and the probe. The raw figures are printed on stderr.

// refProbeMs is the probe's median time on the reference host, a 2-core
// 2.1 GHz Xeon VM; it fixes the unit of the scaled figures.
const refProbeMs = 2.6

// probe is the fixed reference work: generate, sort and hash 32 Ki
// pseudo-random words, a mix of arithmetic, branches, memory traffic and
// map operations like the server's own.
type probe struct {
	buf []uint64
	m   map[uint64]uint64
	sum uint64 // keeps the work observable
}

func newProbe() *probe {
	return &probe{buf: make([]uint64, 32<<10), m: make(map[uint64]uint64, 1<<12)}
}

// once runs the probe and returns its duration in ms.
func (p *probe) once() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := range p.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.buf[i] = x
	}
	slices.Sort(p.buf)
	clear(p.m)
	for i := 0; i < len(p.buf); i += 8 {
		p.m[p.buf[i]>>52] += uint64(i)
	}
	for k, v := range p.m {
		p.sum ^= k*31 + v
	}
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// calibrator collects probe timings over a run, probing every core at
// once: the load runs on all of them, and their speeds drift apart.
type calibrator struct {
	probes []*probe
	timing []float64
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for range runtime.GOMAXPROCS(0) {
		c.probes = append(c.probes, newProbe())
	}
	return c
}

// run probes repeatedly on every core for d.
func (c *calibrator) run(d time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for _, p := range c.probes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				ms := p.once()
				mu.Lock()
				c.timing = append(c.timing, ms)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// speed returns the host's slowdown against the reference: the median
// probe time over refProbeMs (above 1 on a slower host).
func (c *calibrator) speed() float64 {
	return median(c.timing) / refProbeMs
}
