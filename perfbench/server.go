package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// server is one texserve process started by the benchmark.
type server struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	url    string
	client *http.Client
}

// startServer spawns texserve over the trace and result stores named by
// stores (kept as they are) and returns once /healthz answers. dir (made
// empty first) holds the address file.
func startServer(ctx context.Context, e *env, dir string, stores map[string]string) (*server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	s := &server{}
	s.cmd = command(ctx, filepath.Join(e.bin, "texserve"),
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-trace-dir", stores["traces"],
		"-result-dir", stores["results"])
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting texserve: %w", err)
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     e.clients,
		MaxIdleConnsPerHost: e.clients,
		DisableCompression:  true,
	}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			s.url = "http://" + strings.TrimSpace(string(b))
			if resp, err := s.client.Get(s.url + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, nil
				}
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("texserve not ready after 30s: %s", s.stderr.String())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("texserve: %w: %s", err, s.stderr.String())
		}
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("texserve did not drain within 10s")
	}
	return nil
}

// sample is one request the load generator sent.
type sample struct {
	index   int
	status  int
	latency time.Duration
	sum     [sha256.Size]byte
	err     error
}

// drive runs the closed loop: clients goroutines, each sending its next
// request only after reading the previous response to EOF. It sends
// requests first to first+n-1, request i with body body(i).
func (s *server) drive(ctx context.Context, clients, first, n int, body func(int) []byte) []sample {
	var next atomic.Int64
	next.Store(int64(first))
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= first+n {
					return
				}
				out[c] = append(out[c], s.post(ctx, i, body(i)))
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// post sends one request and hashes its response body.
func (s *server) post(ctx context.Context, i int, body []byte) sample {
	sm := sample{index: i}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/experiments", bytes.NewReader(body))
	if err != nil {
		sm.err = err
		return sm
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		sm.err = err
		return sm
	}
	h := sha256.New()
	_, err = io.Copy(h, resp.Body)
	resp.Body.Close()
	sm.latency = time.Since(t0)
	sm.status, sm.err = resp.StatusCode, err
	copy(sm.sum[:], h.Sum(nil))
	return sm
}

// setUp builds the texserve a workload is timed on. A first texserve on
// empty stores under work/setup serves the warm-up bodies; a second one,
// started over the stores the first filled, serves them again, now from the
// stores, and is the one returned. Its memory then holds what serving the
// workload needs, not the garbage of the renders and simulations that
// filled the stores: timed on the first server, hot-repeat's peak resident
// set spread 0.22 to 0.30 over ten seeds.
func setUp(ctx context.Context, e *env, g *gen) (*server, error) {
	dir := filepath.Join(e.work, "setup")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	stores := map[string]string{
		"traces":  filepath.Join(dir, "stores", "traces"),
		"results": filepath.Join(dir, "stores", "results"),
	}
	var s *server
	for start := 0; start < 2; start++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		if s, err = startServer(ctx, e, filepath.Join(dir, "server"), stores); err != nil {
			return nil, err
		}
		for _, sm := range s.drive(ctx, e.clients, 0, len(g.warm), func(i int) []byte { return g.warm[i] }) {
			if sm.err != nil || sm.status != http.StatusOK {
				s.stop()
				return nil, fmt.Errorf("warm-up request %d: status %d: %v", sm.index, sm.status, sm.err)
			}
		}
	}
	return s, nil
}

// runServer measures one server workload: repeated set-ups (see setUp),
// then the timed closed loop on the last set-up's texserve, then verification of every response against an
// uncached in-process run of the same request. The timed phase is one block
// of g.block requests (about a second's work on two CPUs) per second of
// --seconds, so a run does the same work whatever the program's speed, and
// every time and rate is taken per block (see fastTime).
func runServer(ctx context.Context, e *env, g *gen) (*outcome, error) {
	var srv *server
	setup, err := repeatSetup(func() (err error) {
		srv, err = setUp(ctx, e, g)
		return err
	}, func() error { return srv.stop() })
	if err != nil {
		if srv != nil {
			srv.stop()
		}
		return nil, err
	}

	pid := srv.cmd.Process.Pid
	blocks := int(e.seconds / time.Second)
	var samples []sample
	walls := make([]time.Duration, blocks)
	var cpus []float64
	for b := 0; b < blocks; b++ {
		cpu0, err := procCPU(pid)
		if err != nil {
			srv.stop()
			return nil, err
		}
		t0 := time.Now()
		samples = append(samples, srv.drive(ctx, e.clients, b*g.block, g.block, g.body)...)
		walls[b] = time.Since(t0)
		cpu1, err := procCPU(pid)
		if err != nil {
			srv.stop()
			return nil, err
		}
		cpus = append(cpus, (cpu1 - cpu0).Seconds())
	}
	peak, err := procPeakRSS(pid)
	if err != nil {
		srv.stop()
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}

	bodies := map[string]bool{}
	for _, sm := range samples {
		bodies[string(g.body(sm.index))] = true
	}
	refs, err := references(ctx, bodies, e.clients)
	if err != nil {
		return nil, err
	}
	o := &outcome{attempted: len(samples)}
	var all []float64
	lat := make([][]float64, blocks) // latencies of the correct responses, per block
	for _, sm := range samples {
		switch {
		case sm.err != nil || sm.status != http.StatusOK:
			o.failed++
		case sm.sum != refs[string(g.body(sm.index))]:
			o.wrong++
		default:
			ms := float64(sm.latency) / float64(time.Millisecond)
			lat[sm.index/g.block] = append(lat[sm.index/g.block], ms)
			all = append(all, ms)
		}
	}
	var wallS, p50s, rates []float64
	for b := range walls {
		wallS = append(wallS, walls[b].Seconds())
		p50s = append(p50s, median(lat[b]))
		rates = append(rates, float64(len(lat[b]))/walls[b].Seconds())
		fmt.Printf("block %d: %d correct in %.3fs, cpu %.2fs, p50 %.4gms\n", b+1, len(lat[b]), wallS[b], cpus[b], p50s[b])
	}
	o.metrics = map[string]metric{
		"setup_s":        {setup, "s"},
		"wall_s":         {quantile(wallS, fastTime), "s"},
		"cpu_s":          {quantile(cpus, fastTime), "s"},
		"peak_rss_mb":    {peak, "MB"},
		"latency_p50_ms": {quantile(p50s, fastTime), "ms"},
		"throughput_rps": {quantile(rates, fastRate), "1/s"},
	}
	o.extra = map[string]metric{
		"blocks":             {float64(blocks), "count"},
		"block_requests":     {float64(g.block), "count"},
		"completed":          {float64(len(all)), "count"},
		"timed_wall_s":       {sum(wallS), "s"},
		"timed_cpu_s":        {sum(cpus), "s"},
		"latency_p50_all_ms": {median(all), "ms"},
	}
	if v, err := percentile(all, 90); err == nil {
		o.extra["latency_p90_ms"] = metric{v, "ms"}
	}
	if v, err := percentile(all, 99); err == nil {
		o.extra["latency_p99_ms"] = metric{v, "ms"}
	}
	if p, v, ok := tailPercentile(all); ok {
		o.extra[fmt.Sprintf("latency_tail_p%g_ms", p)] = metric{v, "ms"}
	}
	return o, nil
}
