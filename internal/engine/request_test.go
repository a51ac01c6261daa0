package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"texcache/internal/api"
	"texcache/internal/exp"
	"texcache/internal/obs"
)

// drainOne reads the single result a one-shot request emits.
func drainOne(t *testing.T, ch <-chan Result) Result {
	t.Helper()
	r, ok := <-ch
	if !ok {
		t.Fatal("result channel closed without a result")
	}
	if _, more := <-ch; more {
		t.Fatal("one-shot request emitted more than one result")
	}
	return r
}

func TestRunSweepRequest(t *testing.T) {
	req := sweepReq("goblet")
	ch, err := New().RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r := drainOne(t, ch)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.ID != SweepID || !strings.Contains(r.Output, "Miss rate") {
		t.Errorf("sweep result %q output:\n%s", r.ID, r.Output)
	}

	// An unknown scene fails validation before any work starts.
	if _, err := New().RunRequest(context.Background(), sweepReq("no-such-scene")); err == nil {
		t.Error("unknown scene sweep accepted")
	}
}

// TestSweepFieldAcceptedAndIgnored pins the wire decision on the "sweep"
// field: v1 clients may still send it, so a strict decode accepts it,
// validation passes for every value it ever took, and the NDJSON stream
// is byte-identical to the same request without the field.
func TestSweepFieldAcceptedAndIgnored(t *testing.T) {
	const body = `{"scene":"goblet","scale":8,"configs":[` +
		`{"size_bytes":16384,"line_bytes":64,"ways":2},` +
		`{"size_bytes":8192,"line_bytes":64,"ways":2,"policy":"fifo"}]%s}`
	stream := func(sweep string) string {
		t.Helper()
		dec := json.NewDecoder(strings.NewReader(fmt.Sprintf(body, sweep)))
		dec.DisallowUnknownFields()
		var req api.ExperimentRequest
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("decoding %s: %v", sweep, err)
		}
		if err := api.Validate(req.Normalized()); err != nil {
			t.Fatalf("validating %s: %v", sweep, err)
		}
		var buf bytes.Buffer
		if err := New().RunRequestNDJSON(context.Background(), req, &buf, nil); err != nil {
			t.Fatalf("running %s: %v", sweep, err)
		}
		return buf.String()
	}
	want := stream("")
	if !strings.Contains(want, `"Miss rate"`) {
		t.Fatalf("sweep stream carries no table rows:\n%s", want)
	}
	for _, sweep := range []string{`,"sweep":"per-config"`, `,"sweep":"grouped"`} {
		if got := stream(sweep); got != want {
			t.Errorf("request with %s streamed\n%s\nwant\n%s", sweep, got, want)
		}
	}
}

func TestRunRequestArchitecture(t *testing.T) {
	req := api.ExperimentRequest{
		Scene:        "goblet",
		Scale:        8,
		Architecture: &api.Architecture{},
	}
	ch, err := New().RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r := drainOne(t, ch)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.ID != ArchID || !strings.Contains(r.Output, "Pipeline") {
		t.Errorf("architecture result %q output:\n%s", r.ID, r.Output)
	}
}

func TestRunRequestExperiments(t *testing.T) {
	req := api.ExperimentRequest{
		Experiments: []string{"fig5.2"}, Scenes: []string{"goblet"}, Scale: 8,
	}
	ch, err := New().RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r := drainOne(t, ch); r.Err != nil || r.ID != "fig5.2" {
		t.Fatalf("experiments request: %v (id %s)", r.Err, r.ID)
	}
}

func TestRunRequestInvalid(t *testing.T) {
	req := api.ExperimentRequest{Scene: "goblet", Scale: -1}
	if _, err := New().RunRequest(context.Background(), req); err == nil {
		t.Error("invalid request accepted")
	}
}

func gridReq() api.ExperimentRequest {
	return api.ExperimentRequest{
		Grid: &api.Grid{
			Scenes: []string{"goblet"},
			Configs: []api.CacheConfig{
				{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2},
				{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2},
			},
		},
		Scale: 8,
	}
}

func TestRunRequestGrid(t *testing.T) {
	ch, err := New().RunRequest(context.Background(), gridReq())
	if err != nil {
		t.Fatal(err)
	}
	var exhaustive string
	for r := range ch {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		exhaustive = r.Output
	}
	if !strings.Contains(exhaustive, "Cost") {
		t.Errorf("grid output missing cost column:\n%s", exhaustive)
	}

	// A shard slice of count 1 covers the whole grid.
	req := gridReq()
	req.Shard = &api.Shard{Index: 0, Count: 1}
	ch2, err := New().RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for r := range ch2 {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		n++
	}
	if n != 1 {
		t.Errorf("sharded grid emitted %d groups, want 1", n)
	}
}

// TestJobLoopEveryKind pins the one job loop under every request kind:
// Progress fires once per Result with Completed running from 1 to Total,
// a context cancelled before the start yields one Result per job
// carrying its error, and the engine gauges read 0 once the result
// channel closes.
func TestJobLoopEveryKind(t *testing.T) {
	grid := gridReq()
	grid.Grid.Scenes = []string{"goblet", "guitar"}
	shardOf := func(req api.ExperimentRequest, i, n int) api.ExperimentRequest {
		req.Shard = &api.Shard{Index: i, Count: n}
		return req
	}
	cases := []struct {
		name string
		req  api.ExperimentRequest
		jobs int
	}{
		{"experiments", api.ExperimentRequest{Experiments: []string{"table2.1", "fig5.2"},
			Scenes: []string{"goblet"}, Scale: 8}, 2},
		{"sweep", sweepReq("goblet"), 1},
		{"architecture", api.ExperimentRequest{Scene: "goblet", Scale: 8,
			Architecture: &api.Architecture{}}, 1},
		{"grid", grid, 2},
		{"grid shard", shardOf(grid, 1, 2), 1},
	}
	reg := obs.NewRegistry()
	obs.Attach(reg)
	defer obs.Detach()
	gauges := func(t *testing.T) {
		t.Helper()
		for _, g := range []string{"queue_depth", "busy_workers"} {
			if v := reg.Sub("engine").Gauge(g).Value(); v != 0 {
				t.Errorf("engine.%s = %d after the channel closed, want 0", g, v)
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var seen []Progress
			eng := New(WithWorkers(2), WithProgress(func(p Progress) {
				mu.Lock()
				seen = append(seen, p)
				mu.Unlock()
			}))
			ch, err := eng.RunRequest(context.Background(), tc.req)
			if err != nil {
				t.Fatal(err)
			}
			ids := map[string]int{}
			n := 0
			for r := range ch {
				if r.Err != nil {
					t.Errorf("%s: %v", r.ID, r.Err)
				}
				ids[r.ID]++
				n++
			}
			gauges(t)
			if n != tc.jobs {
				t.Fatalf("%d results, want %d", n, tc.jobs)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(seen) != n {
				t.Fatalf("Progress fired %d times for %d results", len(seen), n)
			}
			for i, p := range seen {
				if p.Completed != i+1 || p.Total != n {
					t.Errorf("progress %d reads %d/%d, want %d/%d", i, p.Completed, p.Total, i+1, n)
				}
				ids[p.ID]--
			}
			for id, c := range ids {
				if c != 0 {
					t.Errorf("%s: results and progress calls differ by %d", id, c)
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ch, err = New(WithWorkers(2)).RunRequest(ctx, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			n = 0
			for r := range ch {
				if !errors.Is(r.Err, context.Canceled) {
					t.Errorf("%s under a cancelled context: err %v, want context.Canceled", r.ID, r.Err)
				}
				n++
			}
			gauges(t)
			if n != tc.jobs {
				t.Errorf("cancelled request: %d results, want %d", n, tc.jobs)
			}
		})
	}
}

func TestStreamNDJSONOrdersByIndex(t *testing.T) {
	// Results arriving out of order serialize in index order.
	ch, err := New(WithWorkers(2)).RunRequest(context.Background(), api.ExperimentRequest{
		Experiments: []string{"fig5.2", "table2.1"}, Scenes: []string{"goblet"}, Scale: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	seen := []int{}
	if err := StreamNDJSON(&buf, ch, func(r Result) { seen = append(seen, r.Index) }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Errorf("callback order %v, want [0 1]", seen)
	}
	if buf.Len() == 0 || buf.Bytes()[buf.Len()-1] != '\n' {
		t.Error("NDJSON stream empty or missing trailing newline")
	}
}

func TestRunRequestNDJSONWarmIdentical(t *testing.T) {
	rc := NewResultCache()
	e := New(WithResultCache(rc))
	req := sweepReq("goblet")

	var cold, warm bytes.Buffer
	if err := e.RunRequestNDJSON(context.Background(), req, &cold, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.RunRequestNDJSON(context.Background(), req, &warm, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Error("warm NDJSON stream differs from cold")
	}
	if rc.Produced() != 1 || rc.Hits() != 1 {
		t.Errorf("Produced %d Hits %d, want 1/1", rc.Produced(), rc.Hits())
	}

	// A fresh engine and cache on the same result directory serve the
	// stored stream.
	dir := t.TempDir()
	var first, second bytes.Buffer
	var last *ResultCache
	for _, w := range []*bytes.Buffer{&first, &second} {
		last = NewResultCache()
		if err := last.AttachDir(dir); err != nil {
			t.Fatal(err)
		}
		if err := New(WithResultCache(last)).RunRequestNDJSON(context.Background(), req, w, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) || !bytes.Equal(first.Bytes(), cold.Bytes()) {
		t.Error("result-dir stream not byte-identical across engines")
	}
	if last.StoreHits() != 1 || last.Produced() != 0 {
		t.Errorf("second engine: StoreHits %d Produced %d, want 1/0", last.StoreHits(), last.Produced())
	}
}

// TestRunRequestNDJSONGridCached pins grids on the result-cached path:
// a repeated grid request is a cache hit with the bytes of an uncached
// run.
func TestRunRequestNDJSONGridCached(t *testing.T) {
	var fresh bytes.Buffer
	if err := New().RunRequestNDJSON(context.Background(), gridReq(), &fresh, nil); err != nil {
		t.Fatal(err)
	}
	rc := NewResultCache()
	e := New(WithResultCache(rc))
	var a, b bytes.Buffer
	for _, w := range []*bytes.Buffer{&a, &b} {
		if err := e.RunRequestNDJSON(context.Background(), gridReq(), w, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), fresh.Bytes()) || !bytes.Equal(b.Bytes(), fresh.Bytes()) {
		t.Error("cached grid NDJSON stream differs from an uncached run")
	}
	if rc.Produced() != 1 || rc.Hits() != 1 {
		t.Errorf("Produced %d Hits %d, want 1/1", rc.Produced(), rc.Hits())
	}
}

func TestRunRequestNDJSONNoCache(t *testing.T) {
	// Without a result cache configured the NDJSON path still streams.
	var buf bytes.Buffer
	if err := New().RunRequestNDJSON(context.Background(), sweepReq("goblet"), &buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("uncached NDJSON stream is empty")
	}

	// Invalid requests fail before any bytes.
	var out bytes.Buffer
	if err := New().RunRequestNDJSON(context.Background(), api.ExperimentRequest{Scene: "goblet", Scale: -1}, &out, nil); err == nil || out.Len() != 0 {
		t.Errorf("invalid request: err %v, %d bytes written", err, out.Len())
	}
}

func TestOptionSetters(t *testing.T) {
	rc := NewResultCache()
	tc := NewTraceCache()
	called := false
	e := New(
		WithRenderWorkers(2),
		WithProgress(func(Progress) { called = true }),
		WithTraces(tc),
		WithResultCache(rc),
	)
	if e.opts.RenderWorkers != 2 || e.opts.Traces == nil || e.opts.ResultCache != rc {
		t.Errorf("options not applied: %+v", e.opts)
	}
	ch, err := e.Run(context.Background(), []string{"table2.1"}, exp.Config{Scale: 8, Scenes: []string{"goblet"}})
	if err != nil {
		t.Fatal(err)
	}
	for range ch {
	}
	if !called {
		t.Error("progress callback never fired")
	}
}
