package texcache_test

// Bench-check speedup gates for the two fast paths this engine leans
// on: tile-parallel trace generation and batched trace replay. Both run
// best-of-3 against a warmed baseline, like TestGroupedSweepSpeedup.

import (
	"runtime"
	"testing"
	"time"

	"texcache"
)

// bestOf3 times three runs of f and returns the fastest, rejecting
// scheduler noise the way the grouped-sweep gate does.
func bestOf3(f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		best = min(best, timed(f))
	}
	return best
}

// timed returns how long one run of f takes.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// TestTraceGenParallelSpeedup is the bench-check gate for the tile
// pass: generating the four benchmark traces with a full-width worker
// pool must beat the serial scan by at least 1.5x. The margin comes
// from rasterizing tiles concurrently while the caller drains the
// rank-ordered merge, so — unlike the grouped-sweep gate — it needs
// real cores and skips on a single-CPU host.
func TestTraceGenParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	workers := runtime.NumCPU()
	if workers < 2 {
		t.Skip("parallel speedup needs more than one CPU")
	}

	layout := texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8}
	var scenes []*texcache.Scene
	for _, name := range []string{"flight", "guitar", "goblet", "town"} {
		scenes = append(scenes, mustScene(t, name, 4))
	}
	gen := func(workers int) func() {
		return func() {
			for _, s := range scenes {
				if _, _, err := s.TraceParallel(layout, s.DefaultTraversal(), workers); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Warm both paths (scene meshes, tile-stream pools) before timing.
	gen(1)()
	gen(workers)()

	serial := bestOf3(gen(1))
	parallel := bestOf3(gen(workers))

	speedup := float64(serial) / float64(parallel)
	t.Logf("serial %v, %d workers %v: %.2fx", serial, workers, parallel, speedup)
	if speedup < 1.5 {
		t.Errorf("parallel trace generation speedup %.2fx, want >= 1.5x (serial %v, parallel %v)",
			speedup, serial, parallel)
	}
}

// TestBatchReplaySpeedup is the bench-check gate for the batch replay
// kernel: feeding the Goblet trace to a cache in Replay-sized blocks
// through AccessBatch must beat the per-address Sink loop by at least
// 1.3x. The margin is per-access overhead — one interface call and one
// statistics update per block instead of per address — so it holds on a
// single core. One replay of the trace takes about a millisecond, too
// little to time on a shared host, so each sample replays it enough
// times to take at least about 30ms.
func TestBatchReplaySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	s := mustScene(t, "goblet", 4)
	tr, _, err := s.Trace(texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8},
		s.DefaultTraversal())
	if err != nil {
		t.Fatal(err)
	}
	cfg := texcache.CacheConfig{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2}
	newCache := func() *texcache.Cache {
		c, err := texcache.NewCache(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	const block = 1 << 14 // Replay's chunk size
	reps := 1
	perAddress := func() {
		for range reps {
			var sink texcache.Sink = newCache().Sink()
			for _, a := range tr.Addrs {
				sink.Access(a)
			}
		}
	}
	batched := func() {
		for range reps {
			c := newCache()
			for lo := 0; lo < len(tr.Addrs); lo += block {
				c.AccessBatch(tr.Addrs[lo:min(lo+block, len(tr.Addrs))])
			}
		}
	}
	perAddress() // warm-up: page the trace in
	batched()
	const sample = 30 * time.Millisecond
	reps = int(sample/max(bestOf3(batched), time.Microsecond)) + 1

	// Best of 3 per kernel, the samples alternating so that a slow
	// stretch of the host lands on both kernels alike.
	scalar, batch := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 3; i++ {
		scalar = min(scalar, timed(perAddress))
		batch = min(batch, timed(batched))
	}

	speedup := float64(scalar) / float64(batch)
	t.Logf("per-address %v, batched %v: %.2fx over %d replays of %d addresses",
		scalar, batch, speedup, reps, tr.Len())
	if speedup < 1.3 {
		t.Errorf("batch replay speedup %.2fx, want >= 1.3x (per-address %v, batched %v)",
			speedup, scalar, batch)
	}
}
