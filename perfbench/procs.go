package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one lclgrid process the benchmark started.
type proc struct {
	name  string
	url   string // http://127.0.0.1:port
	ready string // readiness path: /readyz, or /healthz on cachesvc
	cmd   *exec.Cmd
	out   *tail
	done  chan struct{} // closed once the process has been waited for
	err   error         // Wait's result, valid after done
}

// tail keeps the last few KiB a process wrote, for error reports.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8<<10 {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-8<<10:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freeAddr returns a loopback address with a port that was free a moment
// ago. Shards must know every peer's address before any of them starts,
// so ports are chosen up front rather than with -addr :0.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// start launches `bin args... -addr addr`. The process dies with
// perfbench (Pdeathsig), so an aborted benchmark leaves nothing running.
func start(bin, name, addr, ready string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	out := &tail{}
	cmd.Stdout, cmd.Stderr = out, out
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, ready: ready, cmd: cmd, out: out, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to drain (SIGTERM) and waits for it to exit,
// killing it if it has not within 10 s.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

var probeClient = &http.Client{Timeout: time.Second}

// waitReady polls every process's readiness path until all answer 200.
func waitReady(ctx context.Context, ps ...*proc) error {
	deadline := time.Now().Add(60 * time.Second)
	for _, p := range ps {
		for {
			select {
			case <-p.done:
				return fmt.Errorf("%s exited before it was ready (%v):\n%s", p.name, p.err, p.out)
			default:
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after 60s:\n%s", p.name, p.out)
			}
			resp, err := probeClient.Get(p.url + p.ready)
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// peakRSS returns the process's VmHWM (peak resident set) in bytes.
func (p *proc) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %s: %w", p.name, err)
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line for " + p.name)
}

// scrape reads a process's /metrics into a map from series (name plus
// labels, as printed) to value.
func scrape(url string) (map[string]float64, error) {
	resp, err := probeClient.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// cluster is the set of processes one workload runs against.
type cluster struct {
	procs    []*proc // the workload's own processes: their RSS is reported
	extra    []*proc // processes only the traced run adds
	target   string  // where clients send requests
	shards   []string
	cachesvc string
	gateway  string
}

func (c *cluster) stop() {
	all := append(append([]*proc(nil), c.procs...), c.extra...)
	for i := len(all) - 1; i >= 0; i-- {
		all[i].stop()
	}
}

// startCluster starts a workload's processes with shipped default flags
// apart from addresses and fleet wiring, and returns once every one of
// them is ready. The catalogue is warmed with -warm; a server is ready
// once the warm sweep is done.
func startCluster(ctx context.Context, bin string, wl *workload) (*cluster, error) {
	c := &cluster{}
	ok := false
	defer func() {
		if !ok {
			c.stop()
		}
	}()
	if wl.name != "fleet-novel" {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p, err := start(bin, "serve", addr, "/readyz", "serve", "-warm")
		if err != nil {
			return nil, err
		}
		c.procs = append(c.procs, p)
		if err := waitReady(ctx, p); err != nil {
			return nil, err
		}
		c.target, c.shards = p.url, []string{p.url}
		ok = true
		return c, nil
	}
	// The fleet comes up in dependency order: the shared cache, then the
	// shards (which lease and publish through it), then the gateway,
	// whose first health probe must find both shards ready or it routes
	// everything to one of them until the next probe.
	addrs := make([]string, 4)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i] = a
	}
	cs, err := start(bin, "cachesvc", addrs[0], "/healthz", "cachesvc")
	if err != nil {
		return nil, err
	}
	c.procs = append(c.procs, cs)
	c.cachesvc = cs.url
	if err := waitReady(ctx, cs); err != nil {
		return nil, err
	}
	c.shards = []string{"http://" + addrs[1], "http://" + addrs[2]}
	peers := strings.Join(c.shards, ",")
	for i, s := range c.shards {
		p, err := start(bin, fmt.Sprintf("shard%d", i), addrs[1+i], "/readyz",
			"serve", "-warm", "-remote-cache", cs.url, "-self", s, "-peers", peers)
		if err != nil {
			return nil, err
		}
		c.procs = append(c.procs, p)
	}
	if err := waitReady(ctx, c.procs[1:]...); err != nil {
		return nil, err
	}
	gw, err := start(bin, "gateway", addrs[3], "/readyz", "gateway", "-shards", peers)
	if err != nil {
		return nil, err
	}
	c.procs = append(c.procs, gw)
	if err := waitReady(ctx, gw); err != nil {
		return nil, err
	}
	c.target, c.gateway = gw.url, gw.url
	ok = true
	return c, nil
}

// addTraceExtras gives a single-server workload the fleet pieces its
// traced run times against: a cachesvc holding the workload's tables
// and a gateway in front of the server.
func (c *cluster) addTraceExtras(ctx context.Context, bin string) error {
	if c.gateway != "" {
		return nil
	}
	csAddr, err := freeAddr()
	if err != nil {
		return err
	}
	gwAddr, err := freeAddr()
	if err != nil {
		return err
	}
	cs, err := start(bin, "cachesvc", csAddr, "/healthz", "cachesvc")
	if err != nil {
		return err
	}
	c.extra = append(c.extra, cs)
	gw, err := start(bin, "gateway", gwAddr, "/readyz", "gateway", "-shards", strings.Join(c.shards, ","))
	if err != nil {
		return err
	}
	c.extra = append(c.extra, gw)
	if err := waitReady(ctx, cs, gw); err != nil {
		return err
	}
	c.cachesvc, c.gateway = cs.url, gw.url
	return nil
}
