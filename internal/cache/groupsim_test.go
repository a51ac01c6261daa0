package cache

import (
	"context"
	"math/rand"
	"testing"

	"texcache/internal/obs"
)

// diffTrace builds an address stream with structure at several scales —
// a hot set, a wandering medium-range pool and occasional far streaming
// jumps — so every line size and capacity sees a mix of hits, capacity
// misses, conflict misses and cold misses.
func diffTrace(seed int64, n int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := NewTrace(n)
	base := uint64(0)
	for i := 0; i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.5:
			tr.Access(uint64(rng.Intn(4 << 10)))
		case r < 0.9:
			tr.Access(base + uint64(rng.Intn(64<<10)))
		default:
			base += uint64(rng.Intn(1 << 20))
			tr.Access(base)
		}
	}
	return tr
}

// randomConfigs draws valid configurations across the interesting range:
// line sizes 4B-256B, sizes up to 256KB, every associativity including
// direct-mapped and fully-associative, and all three replacement
// policies (FIFO and random exercise the fallback path).
func randomConfigs(rng *rand.Rand, n int) []Config {
	var out []Config
	for len(out) < n {
		line := 4 << rng.Intn(7)
		lines := 1 << (1 + rng.Intn(10))
		cfg := Config{SizeBytes: line * lines, LineBytes: line}
		switch rng.Intn(4) {
		case 0:
			cfg.Ways = 0
		case 1:
			cfg.Ways = 1
		default:
			cfg.Ways = 1 << rng.Intn(4)
		}
		if cfg.Ways > lines {
			cfg.Ways = lines
		}
		if cfg.Ways > 0 {
			cfg.Policy = Replacement(rng.Intn(3))
		}
		if cfg.Validate() != nil {
			continue
		}
		out = append(out, cfg)
	}
	return out
}

// TestSimulateConfigsGroupedMatchesSerial is the differential gate of
// the grouped simulator: for randomized configurations over a structured
// stream, every Stats field — accesses, misses and the cold/capacity/
// conflict split — must equal per-configuration serial simulation
// exactly.
func TestSimulateConfigsGroupedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := diffTrace(1234, 60000)
	cfgs := randomConfigs(rng, 40)

	want := tr.SimulateConfigs(cfgs)
	got, err := SimulateConfigsGroupedStream(context.Background(), tr, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if got[i] != want[i] {
			t.Errorf("%v: grouped %+v != serial %+v", cfg, got[i], want[i])
		}
	}
}

// TestMissRatesGroupedMatchesConcurrent checks the rate-only form
// against one plain cache per configuration replayed concurrently, the
// work the grouped walk replaces.
func TestMissRatesGroupedMatchesConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := diffTrace(99, 30000)
	cfgs := randomConfigs(rng, 24)

	caches := make([]*Cache, len(cfgs))
	sinks := make([]Sink, len(cfgs))
	for i, cfg := range cfgs {
		caches[i] = New(cfg)
		sinks[i] = caches[i].Sink()
	}
	if err := ReplayStreamConcurrent(context.Background(), tr, sinks...); err != nil {
		t.Fatal(err)
	}
	got, err := MissRatesGroupedStream(context.Background(), tr, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if want := caches[i].Stats().MissRate(); got[i] != want {
			t.Errorf("%v: grouped rate %v != concurrent %v", cfg, got[i], want)
		}
	}
}

// TestGroupedDegenerateSweeps covers the edges: an empty configuration
// list, an empty trace, a single configuration, and a one-set
// set-associative cache (sets == 1 behaves fully associatively, so its
// misses can never classify as conflicts).
func TestGroupedDegenerateSweeps(t *testing.T) {
	ctx := context.Background()
	tr := diffTrace(5, 5000)

	if stats, err := SimulateConfigsGroupedStream(ctx, tr, nil); err != nil || len(stats) != 0 {
		t.Errorf("empty sweep = %v, %v", stats, err)
	}

	empty := NewTrace(0)
	stats, err := SimulateConfigsGroupedStream(ctx, empty, []Config{{SizeBytes: 1 << 10, LineBytes: 32, Ways: 2}})
	if err != nil || stats[0] != (Stats{}) {
		t.Errorf("empty trace = %+v, %v", stats, err)
	}

	cfgs := []Config{
		{SizeBytes: 256, LineBytes: 64, Ways: 4}, // one set: 4 lines, 4 ways
		{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2},
	}
	want := tr.SimulateConfigs(cfgs)
	got, err := SimulateConfigsGroupedStream(ctx, tr, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if got[i] != want[i] {
			t.Errorf("%v: grouped %+v != serial %+v", cfgs[i], got[i], want[i])
		}
	}
	if got[0].Conflict != 0 {
		t.Errorf("one-set cache reported %d conflict misses", got[0].Conflict)
	}
}

// TestGroupedInvalidConfig verifies invalid configurations surface as
// *ConfigError before any replay work, from both grouped entry points.
func TestGroupedInvalidConfig(t *testing.T) {
	tr := diffTrace(3, 100)
	bad := []Config{{SizeBytes: 1 << 10, LineBytes: 48, Ways: 1}}
	if _, err := SimulateConfigsGroupedStream(context.Background(), tr, bad); !isConfigError(err) {
		t.Errorf("SimulateConfigsGroupedStream error = %v, want *ConfigError", err)
	}
	if _, err := MissRatesGroupedStream(context.Background(), tr, bad); !isConfigError(err) {
		t.Errorf("MissRatesGroupedStream error = %v, want *ConfigError", err)
	}
}

func isConfigError(err error) bool {
	_, ok := err.(*ConfigError)
	return ok
}

// TestGroupedCancellation: a pre-cancelled context stops the sweep and
// propagates the context error.
func TestGroupedCancellation(t *testing.T) {
	tr := diffTrace(11, 10000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateConfigsGroupedStream(ctx, tr, []Config{{SizeBytes: 1 << 10, LineBytes: 32, Ways: 2}}); err == nil {
		t.Error("cancelled grouped sweep returned nil error")
	}
}

// TestLoneConfigRouteMatchesGroupSim checks the route a line size with
// a single LRU configuration takes against the grouped walk, which
// shares no code with the batch kernel: the classifying cache of
// SimulateConfigsGroupedStream and the plain one of
// MissRatesGroupedStream must each equal a groupSim carrying just that
// configuration, on both stream forms.
func TestLoneConfigRouteMatchesGroupSim(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	tr := diffTrace(31, 40000)
	var cfgs []Config
	for _, cfg := range randomConfigs(rng, 48) {
		if cfg.Policy == LRU {
			cfgs = append(cfgs, cfg)
		}
	}
	cfgs = append(cfgs,
		Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2},
		Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 1},
		Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 0},
		Config{SizeBytes: 256, LineBytes: 64, Ways: 4}, // one set
	)
	for _, cfg := range cfgs {
		p, err := planSweep([]Config{cfg}, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.groups) != 0 || len(p.caches) != 1 {
			t.Fatalf("%v: planned %d walks and %d caches, want its own cache", cfg, len(p.groups), len(p.caches))
		}
		g := newGroupSim(cfg.LineBytes)
		slot := g.add(cfg)
		ReplayStream(tr, g)
		want := g.statsAt(slot)
		for _, f := range bothForms(tr) {
			got, err := SimulateConfigsGroupedStream(ctx, f.s, []Config{cfg})
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != want {
				t.Errorf("%v %s: own cache %+v != walk %+v", cfg, f.name, got[0], want)
			}
			rate, err := MissRatesGroupedStream(ctx, f.s, []Config{cfg})
			if err != nil {
				t.Fatal(err)
			}
			if rate[0] != want.MissRate() {
				t.Errorf("%v %s: own cache rate %v != walk %v", cfg, f.name, rate[0], want.MissRate())
			}
		}
	}
}

// TestGroupsimObsCounters verifies the sweep planner's accounting in the
// groupsim namespace: configurations sharing a grouped walk, those
// replayed on their own cache (a lone LRU configuration at its line
// size, FIFO and random), and the walks the grouping saved.
func TestGroupsimObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(reg)
	defer obs.Detach()

	tr := diffTrace(21, 2000)
	cfgs := []Config{
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 2},                 // grouped (32B)
		{SizeBytes: 8 << 10, LineBytes: 32, Ways: 4},                 // grouped (32B, same walk)
		{SizeBytes: 8 << 10, LineBytes: 64, Ways: 0},                 // own cache: the only 64B LRU config
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 2, Policy: FIFO},   // own cache
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 2, Policy: Random}, // own cache
	}
	if _, err := SimulateConfigsGroupedStream(context.Background(), tr, cfgs); err != nil {
		t.Fatal(err)
	}
	gs := reg.Sub("groupsim")
	if got := gs.Counter("grouped_configs").Value(); got != 2 {
		t.Errorf("groupsim.grouped_configs = %d, want 2", got)
	}
	if got := gs.Counter("fallback_configs").Value(); got != 3 {
		t.Errorf("groupsim.fallback_configs = %d, want 3", got)
	}
	// 2 grouped configs on one walk: one walk saved.
	if got := gs.Counter("passes_saved").Value(); got != 1 {
		t.Errorf("groupsim.passes_saved = %d, want 1", got)
	}
}
