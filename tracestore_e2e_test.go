package texcache_test

// End-to-end acceptance for the compact trace encoding and the
// persistent trace store: on a real rendered scene, the compact form
// must be at least 3x smaller than the materialized trace and replay
// bit-identically through every simulation path, and a warm store must
// make a repeat experiment run at least 2x faster than the cold run
// that populated it (the store replaces rendering with a file read).

import (
	"context"
	"testing"
	"time"

	"texcache"
)

// TestCompactTraceDifferentialStats replays one rendered goblet frame
// both materialized and compact-encoded through the serial, concurrent
// and grouped simulation paths, comparing classified statistics exactly.
func TestCompactTraceDifferentialStats(t *testing.T) {
	s := mustScene(t, "goblet", 4)
	tr, _, err := s.Trace(texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8},
		s.DefaultTraversal())
	if err != nil {
		t.Fatal(err)
	}
	c := texcache.CompactTraceFromTrace(tr)
	if c.Len() != tr.Len() {
		t.Fatalf("compact trace has %d addresses, trace %d", c.Len(), tr.Len())
	}
	if r := c.Ratio(); r < 3 {
		t.Errorf("compact footprint ratio %.2fx on goblet, want >= 3x (%d -> %d bytes)",
			r, 8*tr.Len(), c.SizeBytes())
	}

	cfgs := sweep8()
	ctx := context.Background()
	want := tr.SimulateConfigs(cfgs)

	streamed, err := concurrentStats(ctx, c, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := texcache.SimulateConfigsGroupedStream(ctx, c, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if streamed[i] != want[i] {
			t.Errorf("%+v: compact concurrent stats %+v != serial %+v", cfg, streamed[i], want[i])
		}
		if grouped[i] != want[i] {
			t.Errorf("%+v: compact grouped stats %+v != serial %+v", cfg, grouped[i], want[i])
		}
	}

	// Single-sink serial replay, including the stack-distance profiler.
	wantSD := texcache.NewStackDist(128)
	texcache.ReplayStream(tr, wantSD)
	gotSD := texcache.NewStackDist(128)
	texcache.ReplayStream(c, gotSD)
	for _, size := range []int{4 << 10, 32 << 10, 256 << 10} {
		if g, w := gotSD.MissRateAt(size), wantSD.MissRateAt(size); g != w {
			t.Errorf("stack-distance miss rate at %d bytes: compact %v != trace %v", size, g, w)
		}
	}
}

// storeBenchIDs is the experiment set the store timing gate and the
// cold/warm benchmarks run: render-dominated experiments over one scene.
var storeBenchIDs = []string{"fig5.2", "fig5.7"}

// runWithTraceDir runs the gate's experiment batch against the given
// store directory and fails the test on any experiment error.
func runWithTraceDir(tb testing.TB, dir string, scale int) {
	tb.Helper()
	req := texcache.ExperimentRequest{
		Experiments: storeBenchIDs, Scale: scale, Scenes: []string{"goblet"},
	}
	results, err := texcache.Run(context.Background(), req, texcache.WithTraceDir(dir))
	if err != nil {
		tb.Fatal(err)
	}
	for r := range results {
		if r.Err != nil {
			tb.Fatalf("%s: %v", r.ID, r.Err)
		}
	}
}

// TestTraceStoreWarmSpeedup is the second bench-check gate (`make
// bench-check`): a batch served from a warm trace store must run at
// least 2x faster than the cold batch that populated it, because the
// store turns every render into a checksummed file read. The margin is
// structural — rendering dominates these experiments — so the gate
// holds on a single core.
func TestTraceStoreWarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	const scale = 4
	warmDir := t.TempDir()
	runWithTraceDir(t, warmDir, scale) // populate, untimed

	// Best-of-3 on each side rejects scheduler noise. Every cold run
	// gets a fresh directory so it really renders.
	best := func(run func()) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			run()
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	cold := best(func() { runWithTraceDir(t, t.TempDir(), scale) })
	warm := best(func() { runWithTraceDir(t, warmDir, scale) })

	speedup := float64(cold) / float64(warm)
	t.Logf("cold %v, warm %v: %.2fx", cold, warm, speedup)
	if speedup < 2 {
		t.Errorf("warm trace-store speedup %.2fx, want >= 2x (cold %v, warm %v)", speedup, cold, warm)
	}
}

// TestTraceDirOutputIdentical pins byte-identity across the store
// tiers at the texsim API level: the same experiment produces the same
// text with no store, with a cold store, and with a warm store.
func TestTraceDirOutputIdentical(t *testing.T) {
	const id = "fig5.4"
	req := texcache.ExperimentRequest{
		Experiments: []string{id}, Scale: 8, Scenes: []string{"goblet"},
	}
	run := func(opts ...texcache.ExperimentOption) string {
		t.Helper()
		results, err := texcache.Run(context.Background(), req, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for r := range results {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.ID, r.Err)
			}
			out = r.Output
		}
		return out
	}
	want := run()
	dir := t.TempDir()
	if cold := run(texcache.WithTraceDir(dir)); cold != want {
		t.Error("cold trace-store run differs from storeless run")
	}
	if warm := run(texcache.WithTraceDir(dir)); warm != want {
		t.Error("warm trace-store run differs from storeless run")
	}
}
