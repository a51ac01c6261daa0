package texcache_test

// Differential tests of the grouped single-pass sweep simulator against
// per-configuration replay on real rendered traces, plus the bench-check
// speedup gate the Makefile runs.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"texcache"
	"texcache/internal/cache"
)

// mixedSweep extends the acceptance sweep with randomized configurations
// across all three replacement policies, so the grouped path and its
// FIFO/Random fallback path are both exercised on real traces.
func mixedSweep(seed int64, n int) []texcache.CacheConfig {
	rng := rand.New(rand.NewSource(seed))
	cfgs := sweep8()
	policies := []texcache.Replacement{texcache.ReplaceLRU, texcache.ReplaceFIFO, texcache.ReplaceRandom}
	for len(cfgs) < n {
		line := 32 << rng.Intn(4)
		lines := 1 << (3 + rng.Intn(8))
		cfg := texcache.CacheConfig{SizeBytes: line * lines, LineBytes: line}
		if rng.Intn(4) > 0 {
			cfg.Ways = 1 << rng.Intn(4)
			cfg.Policy = policies[rng.Intn(len(policies))]
		}
		if cfg.Validate() != nil {
			continue
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestGroupedSweepMatchesSerialOnScenes is the real-trace differential
// gate: for two rendered scenes and a sweep mixing the acceptance
// configurations with randomized ones (all replacement policies), the
// grouped single-pass simulator must report statistics bit-identical to
// per-configuration serial simulation — every field, including the
// cold/capacity/conflict miss classification.
func TestGroupedSweepMatchesSerialOnScenes(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"goblet", "town"} {
		s := mustScene(t, name, 8)
		tr, _, err := s.Trace(texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8},
			s.DefaultTraversal())
		if err != nil {
			t.Fatal(err)
		}
		cfgs := mixedSweep(int64(len(name)), 24)

		want := tr.SimulateConfigs(cfgs)
		got, err := texcache.SimulateConfigsGroupedStream(ctx, tr, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			if got[i] != want[i] {
				t.Errorf("%s %+v: grouped %+v != serial %+v", name, cfg, got[i], want[i])
			}
		}

		rates, err := cache.MissRatesGroupedStream(ctx, tr, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if rates[i] != want[i].MissRate() {
				t.Errorf("%s %+v: grouped rate %v != serial %v", name, cfgs[i], rates[i], want[i].MissRate())
			}
		}
	}
}

// TestGroupedSweepSpeedup is the bench-check gate (`make bench-check`):
// on the acceptance sweep over a real trace, the grouped single-pass
// simulator must beat per-configuration serial simulation by at least 2x
// per simulated configuration. The margin is algorithmic — one trace
// walk per line size instead of one per configuration — so it holds on a
// single core and the gate needs no parallelism.
func TestGroupedSweepSpeedup(t *testing.T) {
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
	cfgs := sweep8()
	ctx := context.Background()

	// Best-of-3 on each side rejects scheduler noise; one warm-up pass
	// per side pages the trace in before anything is timed.
	tr.SimulateConfigs(cfgs)
	if _, err := texcache.SimulateConfigsGroupedStream(ctx, tr, cfgs); err != nil {
		t.Fatal(err)
	}
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
	serial := best(func() { tr.SimulateConfigs(cfgs) })
	grouped := best(func() {
		if _, err := texcache.SimulateConfigsGroupedStream(ctx, tr, cfgs); err != nil {
			t.Fatal(err)
		}
	})

	speedup := float64(serial) / float64(grouped)
	t.Logf("serial %v, grouped %v: %.2fx over %d configs", serial, grouped, speedup, len(cfgs))
	if speedup < 2 {
		t.Errorf("grouped sweep speedup %.2fx, want >= 2x (serial %v, grouped %v)", speedup, serial, grouped)
	}
}
