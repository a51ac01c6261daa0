package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"texcache/internal/exp"
	"texcache/internal/raster"
	"texcache/internal/report"
	"texcache/internal/texture"
	"texcache/internal/trace"
)

var testCfg = exp.Config{Scale: 8, Scenes: []string{"goblet"}}

func collect(t *testing.T, ch <-chan Result) map[string]Result {
	t.Helper()
	out := map[string]Result{}
	for r := range ch {
		out[r.ID] = r
	}
	return out
}

func TestRunMatchesSerial(t *testing.T) {
	ids := []string{"fig5.2", "fig5.7", "replacement", "sectored"}
	want := map[string]string{}
	for _, id := range ids {
		ex, ok := exp.Lookup(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		var sb strings.Builder
		if err := ex.Run(context.Background(), testCfg, report.NewText(&sb)); err != nil {
			t.Fatalf("serial %s: %v", id, err)
		}
		want[id] = sb.String()
	}

	ch, err := New(WithWorkers(4)).Run(context.Background(), ids, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ch)
	if len(got) != len(ids) {
		t.Fatalf("engine returned %d results, want %d", len(got), len(ids))
	}
	for _, id := range ids {
		r := got[id]
		if r.Err != nil {
			t.Errorf("%s: %v", id, r.Err)
		}
		if r.Output != want[id] {
			t.Errorf("%s: engine output differs from serial run\nengine:\n%s\nserial:\n%s",
				id, r.Output, want[id])
		}
	}
}

func TestRunIndexesFollowRequestOrder(t *testing.T) {
	ids := []string{"table2.1", "table4.1"}
	ch, err := New().Run(context.Background(), ids, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := range ch {
		if ids[r.Index] != r.ID {
			t.Errorf("result %s carries index %d (= %s)", r.ID, r.Index, ids[r.Index])
		}
		if r.Title == "" {
			t.Errorf("%s: missing title", r.ID)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	_, err := New().Run(context.Background(), []string{"fig5.2", "bogus"}, testCfg)
	var ue *exp.UnknownExperimentError
	if !errors.As(err, &ue) || ue.ID != "bogus" {
		t.Fatalf("Run(bogus) = %v, want *exp.UnknownExperimentError{bogus}", err)
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ch, err := New().Run(ctx, []string{"fig5.2", "fig5.7"}, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan map[string]Result, 1)
	go func() { done <- collect(t, ch) }()
	select {
	case got := <-done:
		for id, r := range got {
			if r.Err == nil {
				t.Errorf("%s completed under a cancelled context", id)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled batch did not drain promptly")
	}
}

func TestTraceCacheSingleFlight(t *testing.T) {
	tc := NewTraceCache()
	key := exp.TraceKey{
		Scene:     "goblet",
		Layout:    texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8},
		Traversal: raster.Traversal{Order: raster.RowMajor},
	}
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = tc.SceneTrace(context.Background(), key, 8)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	if n := tc.Renders(); n != 1 {
		t.Errorf("%d concurrent requests caused %d renders, want 1", callers, n)
	}
	// A different scale is a different stream.
	if _, err := tc.SceneTrace(context.Background(), key, 16); err != nil {
		t.Fatal(err)
	}
	if n := tc.Renders(); n != 2 {
		t.Errorf("scale change reused a render: renders = %d, want 2", n)
	}
}

func TestTraceCacheErrorNotCached(t *testing.T) {
	tc := NewTraceCache()
	bad := exp.TraceKey{Scene: "no-such-scene"}
	if _, err := tc.SceneTrace(context.Background(), bad, 8); err == nil {
		t.Fatal("unknown scene rendered")
	}
	if _, err := tc.SceneTrace(context.Background(), bad, 8); err == nil {
		t.Fatal("unknown scene rendered on retry")
	}
	if n := tc.Renders(); n != 2 {
		t.Errorf("failed render was cached: renders = %d, want 2 attempts", n)
	}
}

func TestTraceCachePersistentTier(t *testing.T) {
	dir := t.TempDir()
	store, err := trace.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := exp.TraceKey{
		Scene:     "goblet",
		Layout:    texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8},
		Traversal: raster.Traversal{Order: raster.RowMajor},
	}

	cold := NewTraceCache()
	cold.Store = store
	want, err := cold.SceneTrace(context.Background(), key, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n := cold.Renders(); n != 1 {
		t.Fatalf("cold run performed %d renders, want 1", n)
	}

	// A fresh cache on the same store serves the stream without
	// rendering, bit-identical to the cold run's.
	warm := NewTraceCache()
	warm.Store = store
	got, err := warm.SceneTrace(context.Background(), key, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n := warm.Renders(); n != 0 {
		t.Errorf("warm run performed %d renders, want 0", n)
	}
	if got.Len() != want.Len() {
		t.Fatalf("warm stream has %d addresses, cold %d", got.Len(), want.Len())
	}
	gc, wc := got.Cursor(), want.Cursor()
	for wb := wc.Next(); wb != nil; wb = wc.Next() {
		gb := gc.Next()
		if len(gb) != len(wb) {
			t.Fatal("warm stream block sizes diverge from cold")
		}
		for i := range wb {
			if gb[i] != wb[i] {
				t.Fatalf("warm stream diverges from cold at a block offset %d", i)
			}
		}
	}

	// A corrupted entry silently falls back to rendering.
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("store entries: %v (err %v)", ents, err)
	}
	p := filepath.Join(dir, ents[0].Name())
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rere := NewTraceCache()
	rere.Store = store
	if _, err := rere.SceneTrace(context.Background(), key, 8); err != nil {
		t.Fatal(err)
	}
	if n := rere.Renders(); n != 1 {
		t.Errorf("corrupted entry caused %d renders, want 1", n)
	}
}

func TestRunWithTraceDirMatchesSerial(t *testing.T) {
	id := "fig5.2"
	ex, ok := exp.Lookup(id)
	if !ok {
		t.Fatalf("missing experiment %s", id)
	}
	var sb strings.Builder
	if err := ex.Run(context.Background(), testCfg, report.NewText(&sb)); err != nil {
		t.Fatal(err)
	}
	want := sb.String()

	// Run 0 populates the store cold; run 1 is a fresh engine and a
	// fresh cache, warm from disk. Both must match the serial reference
	// byte for byte.
	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		store, err := trace.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		tc := NewTraceCache()
		tc.Store = store
		ch, err := New(WithTraces(tc)).Run(context.Background(), []string{id}, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range collect(t, ch) {
			if r.Err != nil {
				t.Fatalf("run %d: %v", run, r.Err)
			}
			if r.Output != want {
				t.Errorf("run %d: trace-store output differs from serial run", run)
			}
		}
		if run == 1 && (tc.Renders() != 0 || tc.StoreHits() == 0) {
			t.Errorf("warm run: %d renders, %d store hits; want every trace from disk", tc.Renders(), tc.StoreHits())
		}
	}
}

func TestEngineSharesRendersAcrossExperiments(t *testing.T) {
	// fig5.7 and replacement both need goblet blocked-8 traces; a shared
	// cache must render strictly fewer streams than the sum of their
	// needs run privately.
	tc := NewTraceCache()
	cfg := testCfg
	cfg.Traces = tc
	ch, err := New(WithWorkers(2)).Run(context.Background(), []string{"fig5.7", "replacement"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := range ch {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
	}
	// fig5.7 needs 2 directions x 1 scene; replacement needs the same
	// default-direction stream. Without sharing that is 3 renders; with
	// sharing the default-direction render is reused.
	if n := tc.Renders(); n > 2 {
		t.Errorf("batch rendered %d streams, want <= 2 with sharing", n)
	}
}

func TestNewDefaults(t *testing.T) {
	e := New(WithWorkers(-3))
	if e.opts.Workers < 1 {
		t.Errorf("Workers = %d, want >= 1", e.opts.Workers)
	}
	e = New(WithWorkers(7))
	if e.opts.Workers != 7 {
		t.Errorf("options not applied: %+v", e.opts)
	}
}
