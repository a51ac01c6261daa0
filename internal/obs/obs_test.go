package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every operation on a nil registry and its nil handles must no-op.
	r.Counter("c").Add(3)
	r.Counter("c").Inc()
	r.Gauge("g").Set(7)
	r.Gauge("g").Add(-2)
	r.Timer("t").Observe(time.Second)
	r.Timer("t").ObserveSince(time.Now())
	r.Sub("s").Counter("c").Inc()
	if v := r.Counter("c").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	if len(r.Snapshot()) != 0 {
		t.Errorf("nil snapshot = %v", r.Snapshot())
	}
	if s := r.SummaryLine(); s != "" {
		t.Errorf("nil summary = %q", s)
	}
}

func TestCountersGaugesTimers(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Add(2)
	c.Inc()
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	if r.Counter("hits") != c {
		t.Error("counter handle not memoized")
	}

	g := r.Gauge("depth")
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Errorf("gauge = %d, want 3", g.Value())
	}

	tm := r.Timer("run")
	tm.Observe(2 * time.Second)
	tm.Observe(4 * time.Second)
	if tm.Count() != 2 || tm.Total() != 6*time.Second || tm.Mean() != 3*time.Second {
		t.Errorf("timer = count %d total %v mean %v", tm.Count(), tm.Total(), tm.Mean())
	}
}

func TestHierarchy(t *testing.T) {
	r := NewRegistry()
	r.Sub("engine").Counter("experiments").Add(4)
	r.Sub("engine").Sub("trace_cache").Counter("renders").Inc()
	if r.Sub("engine") != r.Sub("engine") {
		t.Error("sub registry not memoized")
	}
	snap := r.Snapshot()
	if snap["engine.experiments"] != uint64(4) {
		t.Errorf("snapshot[engine.experiments] = %v", snap["engine.experiments"])
	}
	if snap["engine.trace_cache.renders"] != uint64(1) {
		t.Errorf("snapshot[engine.trace_cache.renders] = %v", snap["engine.trace_cache.renders"])
	}
}

func TestSummaryLine(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Gauge("a").Set(-1)
	r.Timer("c").Observe(1500 * time.Millisecond)
	got := r.SummaryLine()
	want := "a=-1 b=2 c=1.5s"
	if got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Sub("load").Counter("n")
			for j := 0; j < per; j++ {
				c.Inc()
				r.Gauge("g").Add(1)
				r.Gauge("g").Add(-1)
			}
		}()
	}
	wg.Wait()
	if v := r.Sub("load").Counter("n").Value(); v != goroutines*per {
		t.Errorf("counter = %d, want %d", v, goroutines*per)
	}
	if v := r.Gauge("g").Value(); v != 0 {
		t.Errorf("gauge = %d, want 0", v)
	}
}

func TestAttachDetach(t *testing.T) {
	defer Detach()
	if Default() != nil {
		t.Fatal("default registry attached at test start")
	}
	r := NewRegistry()
	Attach(r)
	if Default() != r {
		t.Error("Default() did not return the attached registry")
	}
	Default().Counter("x").Inc()
	Detach()
	if Default() != nil {
		t.Error("Detach left a registry attached")
	}
	// Instrumented code keeps working against the nil default.
	Default().Counter("x").Inc()
	if v := r.Counter("x").Value(); v != 1 {
		t.Errorf("counter = %d, want 1 (post-detach increment leaked)", v)
	}
}

func TestServeExposesExpvarAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("served").Add(9)
	PublishExpvar("texcache_test_serve", r)
	// Republishing rebinds instead of panicking.
	r2 := NewRegistry()
	r2.Counter("served").Add(11)
	PublishExpvar("texcache_test_serve", r2)

	srv, ln, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", ln.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	var snap map[string]any
	if err := json.Unmarshal(vars["texcache_test_serve"], &snap); err != nil {
		t.Fatalf("registry var missing: %v", err)
	}
	if snap["served"] != float64(11) {
		t.Errorf("served = %v, want 11 (from the rebound registry)", snap["served"])
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/", ln.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	pp, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(pp), "goroutine") {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}
}
