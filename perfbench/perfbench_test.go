package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"texcache/internal/api"
)

func bodies(t *testing.T, workload string, seed int64, n int) [][]byte {
	t.Helper()
	g, err := newGen(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := append([][]byte(nil), g.warm...)
	for i := 0; i < n; i++ {
		out = append(out, g.body(i))
	}
	return out
}

func TestGeneratorDeterministicAndValid(t *testing.T) {
	for _, w := range workloads {
		a, b := bodies(t, w.name, 7, 200), bodies(t, w.name, 7, 200)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: body %d differs between two generators of seed 7", w.name, i)
			}
			if _, err := decodeRequest(a[i]); err != nil {
				t.Fatalf("%s: body %d fails validation: %v\n%s", w.name, i, err, a[i])
			}
		}
		if w.name != "paper-batch" && bytes.Equal(bytes.Join(a, nil), bytes.Join(bodies(t, w.name, 8, 200), nil)) {
			t.Errorf("%s: seeds 7 and 8 generate the same bodies", w.name)
		}
	}
}

func TestColdSweepKeysDistinct(t *testing.T) {
	// Several times what one run at 10s sends.
	seen := map[string]int{}
	for i, b := range bodies(t, "cold-sweep", 3, 1728) {
		req, err := decodeRequest(b)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%s %+v %+v %d", req.Scene, req.LayoutSpec(), req.RasterTraversal(), req.Scale)
		if j, dup := seen[key]; dup {
			t.Fatalf("requests %d and %d share trace key %s", j, i, key)
		}
		seen[key] = i
	}
}

func TestWorkloadShapes(t *testing.T) {
	g, err := newGen("hot-repeat", 5)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, b := range g.pool {
		req, _ := decodeRequest(b)
		ids[req.ResultIdentity()] = true
	}
	if len(ids) != hotKeys {
		t.Errorf("hot-repeat pool has %d distinct results, want %d", len(ids), hotKeys)
	}
	arch := 0
	for _, b := range bodies(t, "trace-warm-sweep", 5, 320)[traceWarmKeys:] {
		req, _ := decodeRequest(b)
		switch req.Kind() {
		case api.KindArchitecture:
			arch++
		case api.KindSweep:
			if n := len(req.Configs); n != 20 {
				t.Errorf("trace-warm-sweep request has %d configs, want 20", n)
			}
		}
	}
	if arch != 80 {
		t.Errorf("trace-warm-sweep: %d of 320 requests are architecture requests, want 80", arch)
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	if _, err := percentile(seq(99), 90); err == nil {
		t.Error("p90 of 99 samples: want a refusal")
	}
	if v, err := percentile(seq(100), 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples: want a refusal")
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true}, {1000, 99, true}, {10000, 99.9, true}} {
		p, _, ok := tailPercentile(seq(c.n))
		if ok != c.ok || p != c.want {
			t.Errorf("tail of %d samples: p%g (ok %v), want p%g (ok %v)", c.n, p, ok, c.want, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestFastQuartile(t *testing.T) {
	blocks := []float64{1.4, 1.0, 1.2, 3.0, 1.1} // one block slowed by the host
	if q := quantile(blocks, fastTime); q != 1.1 {
		t.Errorf("fast quartile of block times = %v, want 1.1", q)
	}
	if q := quantile([]float64{5, 7, 1}, fastRate); q != 6 {
		t.Errorf("fast quartile of rates 1, 5, 7 = %v, want 6 (between 5 and 7)", q)
	}
	if q := quantile([]float64{2}, fastTime); q != 2 {
		t.Errorf("quartile of one block = %v, want 2", q)
	}
	if q := quantile(nil, fastTime); q != 0 {
		t.Errorf("quartile of no blocks = %v, want 0", q)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "engine", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "trace_cache.produce", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "trace_cache.hit", Start: ms(30), End: ms(50)}, // overlaps 2
		{ID: 4, Parent: 2, Name: "grandchild", Start: ms(60), End: ms(70)},      // not a direct child
		{ID: 5, Parent: 1, Name: "write", Start: ms(90), End: ms(120)},          // runs past the parent
		{ID: 6, Name: "other", Start: ms(0), End: ms(100)},
	}
	// Children cover [10,50) and [90,100): 50ms of the 100.
	if got := selfTime(spans[0], spans); got != ms(50) {
		t.Errorf("self time = %v, want 50ms", got)
	}
	if got := selfTime(spans[5], spans); got != ms(100) {
		t.Errorf("childless self time = %v, want 100ms", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	ctx, end := rec.start(context.Background(), "request", 7)
	cctx, cend := rec.start(ctx, "engine", 0)
	_, gend := rec.start(cctx, "write", 0)
	gend()
	cend()
	end()
	s := rec.all()
	if len(s) != 3 || s[1].Parent != s[0].ID || s[2].Parent != s[1].ID {
		t.Fatalf("spans not nested: %+v", s)
	}
	for _, x := range s {
		if x.Request != 7 || x.End < x.Start {
			t.Errorf("span %+v: want request 7 and end >= start", x)
		}
	}
	var nilRec *recorder
	if c, end := nilRec.start(ctx, "x", 1); c != ctx {
		t.Error("nil recorder changed the context")
	} else {
		end()
	}
}

func TestReconciliationShares(t *testing.T) {
	m := map[string]metric{
		"render.ms_per_trace":    {12, "ms"},
		"trace.encode_ms":        {2, "ms"},
		"trace.store_save_ms":    {1, "ms"},
		"trace_cache.produce_ms": {20, "ms"},
	}
	if got := renderShare(m); got != 0.75 {
		t.Errorf("render share = %v, want 0.75", got)
	}
	delete(m, "trace_cache.produce_ms")
	if got := renderShare(m); got != 0 {
		t.Errorf("render share without produce spans = %v, want 0", got)
	}
	if got := overheadShare(110*time.Millisecond, 100*time.Millisecond); got < 0.0999 || got > 0.1001 {
		t.Errorf("overhead share = %v, want 0.1", got)
	}
	if got := share(3, 0); got != 0 {
		t.Errorf("share over zero = %v, want 0", got)
	}
}

func TestParseBatch(t *testing.T) {
	out := "=== a: First (scale 4) ===\nrow 1\n--- (horizontal rasterization) ---\nrow 2\n--- a done in 1.5s ---\n\n" +
		"=== b: Second (scale 4) ===\nonly\n--- b done in 7ms ---\n\n=== 2 experiments in 1.6s ===\n"
	got, err := parseBatch(out, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if got["a"].text != "row 1\n--- (horizontal rasterization) ---\nrow 2\n" || got["a"].elapsed != 1500*time.Millisecond {
		t.Errorf("a = %+v", got["a"])
	}
	if got["b"].text != "only\n" || got["b"].elapsed != 7*time.Millisecond {
		t.Errorf("b = %+v", got["b"])
	}
	if _, err := parseBatch(strings.Replace(out, "--- b done", "--- c done", 1), []string{"a", "b"}); err == nil {
		t.Error("missing timing line: want an error")
	}
}

func TestDriveIsClosedLoop(t *testing.T) {
	var inFlight, peak atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	s := &server{url: srv.URL, client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2}}}
	samples := s.drive(context.Background(), 2, 0, 40, func(i int) []byte { return []byte("{}") })
	if len(samples) != 40 {
		t.Fatalf("%d samples, want 40", len(samples))
	}
	seen := map[int]bool{}
	for _, sm := range samples {
		if sm.err != nil || sm.status != http.StatusOK {
			t.Fatalf("request %d: %d %v", sm.index, sm.status, sm.err)
		}
		seen[sm.index] = true
	}
	if len(seen) != 40 {
		t.Errorf("%d distinct request indices, want 40", len(seen))
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("%d requests in flight at once from 2 closed-loop clients", p)
	}
}
