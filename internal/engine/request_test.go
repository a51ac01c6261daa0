package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"texcache/internal/api"
	"texcache/internal/exp"
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

	// The pruned run reports the same frontier (dominated rows become
	// notes) and the frontier file round-trips.
	ff := filepath.Join(t.TempDir(), "frontier.ndjson")
	for run := 0; run < 2; run++ {
		ch, err := New(WithPruning(true), WithFrontierFile(ff)).RunRequest(context.Background(), gridReq())
		if err != nil {
			t.Fatal(err)
		}
		for r := range ch {
			if r.Err != nil {
				t.Fatalf("pruned run %d: %v", run, r.Err)
			}
		}
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

	// A fresh engine sharing a ResultDir serves the stored stream.
	dir := t.TempDir()
	var first, second bytes.Buffer
	if err := New(WithResultDir(dir)).RunRequestNDJSON(context.Background(), req, &first, nil); err != nil {
		t.Fatal(err)
	}
	if err := New(WithResultDir(dir)).RunRequestNDJSON(context.Background(), req, &second, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) || !bytes.Equal(first.Bytes(), cold.Bytes()) {
		t.Error("result-dir stream not byte-identical across engines")
	}
}

func TestRunRequestNDJSONGridBypasses(t *testing.T) {
	rc := NewResultCache()
	e := New(WithResultCache(rc))
	var a, b bytes.Buffer
	for _, w := range []*bytes.Buffer{&a, &b} {
		if err := e.RunRequestNDJSON(context.Background(), gridReq(), w, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("grid NDJSON stream not deterministic")
	}
	if rc.Misses() != 0 && rc.Hits() != 0 {
		t.Errorf("grid request touched the result cache: misses %d hits %d", rc.Misses(), rc.Hits())
	}
	if rc.Produced() != 0 {
		t.Errorf("grid request produced a cache entry: %d", rc.Produced())
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

	// An unusable result dir fails fast.
	f := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New(WithResultDir(filepath.Join(f, "sub"))).RunRequestNDJSON(context.Background(), sweepReq("goblet"), &buf, nil); err == nil {
		t.Error("unusable result dir accepted")
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
		WithResultDir("ignored"),
	)
	if e.opts.RenderWorkers != 2 || e.opts.Traces == nil || e.opts.ResultCache != rc {
		t.Errorf("options not applied: %+v", e.opts)
	}
	got, err := e.results()
	if err != nil || got != rc {
		t.Errorf("results() = %v, %v; want the shared cache", got, err)
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
