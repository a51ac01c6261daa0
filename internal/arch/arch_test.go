package arch

import (
	"errors"
	"math/rand"
	"testing"

	"texcache/internal/cache"
)

func testCacheCfg() cache.Config {
	return cache.Config{SizeBytes: 4 << 10, LineBytes: 128, Ways: 2}
}

// strideTrace builds a trace with a controllable miss rate: repeated
// groups of `reuse` accesses to one line before moving to the next.
func strideTrace(lines, reuse int) *cache.Trace {
	tr := cache.NewTrace(lines * reuse)
	for l := 0; l < lines; l++ {
		for r := 0; r < reuse; r++ {
			tr.Access(uint64(l)*128 + uint64(r*4%128))
		}
	}
	return tr
}

// randomTrace builds a deterministic pseudo-random mix of hot-line hits
// and fresh-line misses — about 3% misses including short bursts, the
// texture-trace regime — to exercise the queue constraints.
func randomTrace(n int, seed int64) *cache.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := cache.NewTrace(n)
	next := uint64(1 << 20)
	for tr.Len() < n {
		r := rng.Intn(1000)
		switch {
		case r < 15: // fresh line: a cold miss
			tr.Access(next)
			next += 128
		case r < 20: // short burst of fresh lines
			for k := 0; k < 3; k++ {
				tr.Access(next)
				next += 128
			}
		default:
			tr.Access(uint64(rng.Intn(8)) * 128) // hot set: hits
		}
	}
	return tr
}

func TestValidateFields(t *testing.T) {
	good := Default(testCacheCfg(), Prefetch)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		field  string
		mutate func(*Config)
	}{
		{"pipeline", func(c *Config) { c.Pipeline = Pipeline(7) }},
		{"fragment_fifo", func(c *Config) { c.FragmentFIFO = -1 }},
		{"fragment_fifo", func(c *Config) { c.FragmentFIFO = maxQueue + 1 }},
		{"request_fifo", func(c *Config) { c.RequestFIFO = 0 }},
		{"reorder_buffer", func(c *Config) { c.ReorderBuffer = 0 }},
		{"result_fifo", func(c *Config) { c.ResultFIFO = -1 }},
		{"texels_per_cycle", func(c *Config) { c.TexelsPerCycle = 0 }},
		{"texels_per_fragment", func(c *Config) { c.TexelsPerFragment = 0 }},
		{"fill_latency", func(c *Config) { c.FillLatency = -1 }},
		{"fill_occupancy", func(c *Config) { c.FillOccupancy = 0 }},
	}
	for _, tc := range cases {
		bad := good
		tc.mutate(&bad)
		err := bad.Validate()
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: want *ConfigError, got %v", tc.field, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("field = %q, want %q (%v)", ce.Field, tc.field, err)
		}
	}
	bad := good
	bad.Cache.SizeBytes = 100
	var cce *cache.ConfigError
	if err := bad.Validate(); !errors.As(err, &cce) {
		t.Errorf("cache problem not a *cache.ConfigError: %v", err)
	}
	if _, err := Simulate(bad, cache.NewTrace(0)); err == nil {
		t.Error("Simulate accepted an invalid config")
	}
}

func TestTimelineMatchesCache(t *testing.T) {
	tr := randomTrace(1<<15, 1)
	tl, err := NewTimeline(testCacheCfg(), tr)
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(testCacheCfg())
	cache.ReplayStream(tr, c.Sink())
	st := c.Stats()
	if tl.Accesses() != st.Accesses || tl.MissCount() != st.Misses {
		t.Errorf("timeline %d/%d misses, plain replay %d/%d",
			tl.MissCount(), tl.Accesses(), st.Misses, st.Accesses)
	}
	if tl.CacheConfig() != testCacheCfg() {
		t.Errorf("CacheConfig = %v", tl.CacheConfig())
	}
}

// TestBlockingClosedForm pins the blocking baseline against its exact
// closed form: every access costs one unit and every miss adds the full
// fill round trip, so TotalUnits = n + M*(latency+occupancy)*perCycle.
func TestBlockingClosedForm(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		tr := randomTrace(1<<14, seed)
		cfg := Default(testCacheCfg(), Blocking)
		res, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		per := uint64(cfg.TexelsPerCycle)
		units := res.Accesses + res.Misses*uint64(cfg.FillLatency+cfg.FillOccupancy)*per
		want := (units + per - 1) / per
		if res.TotalCyc != want {
			t.Errorf("seed %d: blocking TotalCyc = %d, closed form %d", seed, res.TotalCyc, want)
		}
		if res.TotalCyc != res.ComputeCyc+res.StallCyc {
			t.Errorf("seed %d: cycle accounting inconsistent: %+v", seed, res)
		}
	}
}

// TestBlockingLinearInLatency pins the defining property of the
// baseline: execution time grows linearly with fill latency.
func TestBlockingLinearInLatency(t *testing.T) {
	tr := randomTrace(1<<14, 4)
	tl, err := NewTimeline(testCacheCfg(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(testCacheCfg(), Blocking)
	cfg.FillLatency = 100
	r100, err := tl.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FillLatency = 200
	r200, err := tl.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := uint64(cfg.TexelsPerCycle)
	wantUnits := r100.TotalCyc*per + r100.Misses*100*per
	if got := r200.TotalCyc * per; got != wantUnits {
		t.Errorf("blocking not linear: 200-cycle total %d units, want %d", got, wantUnits)
	}
}

// TestHitsNeverStall: with a single cold miss up front, the prefetch
// pipeline pays at most that one fill and then streams at the compute
// rate.
func TestHitsNeverStall(t *testing.T) {
	tr := cache.NewTrace(4096)
	for i := 0; i < 4096; i++ {
		tr.Access(0)
	}
	cfg := Default(testCacheCfg(), Prefetch)
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 1 {
		t.Fatalf("misses = %d, want 1", res.Misses)
	}
	if res.StallCyc > uint64(cfg.FillLatency+cfg.FillOccupancy)+1 {
		t.Errorf("hit stream stalled %d cycles beyond the single cold fill", res.StallCyc)
	}
	if res.Fragments != res.Accesses/uint64(cfg.TexelsPerFragment) {
		t.Errorf("fragments = %d", res.Fragments)
	}
}

// TestZeroDepthPrefetchEqualsBlocking is the differential pin: a
// prefetch pipeline with no fragment FIFO is the blocking machine, and
// the cycle recurrence must agree exactly.
func TestZeroDepthPrefetchEqualsBlocking(t *testing.T) {
	for _, seed := range []int64{1, 5, 9} {
		tr := randomTrace(1<<14, seed)
		tl, err := NewTimeline(testCacheCfg(), tr)
		if err != nil {
			t.Fatal(err)
		}
		p := Default(testCacheCfg(), Prefetch)
		p.FragmentFIFO = 0
		b := Default(testCacheCfg(), Blocking)
		rp, err := tl.Simulate(p)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := tl.Simulate(b)
		if err != nil {
			t.Fatal(err)
		}
		if rp != rb {
			t.Errorf("seed %d: zero-depth prefetch %+v != blocking %+v", seed, rp, rb)
		}
	}
}

// TestDeepFIFOHidesLatency: at the default depth the prefetch pipeline
// runs within 10% of its own zero-latency bound, while blocking at the
// same point is far slower.
func TestDeepFIFOHidesLatency(t *testing.T) {
	tr := randomTrace(1<<15, 6)
	tl, err := NewTimeline(testCacheCfg(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(testCacheCfg(), Prefetch)
	cfg.FillLatency = 0
	bound, err := tl.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FillLatency = 100
	hot, err := tl.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if float64(hot.TotalCyc) > 1.10*float64(bound.TotalCyc) {
		t.Errorf("prefetch at 100-cycle latency %d cyc, zero-latency bound %d: not hidden",
			hot.TotalCyc, bound.TotalCyc)
	}
	blk, err := tl.Simulate(Default(testCacheCfg(), Blocking))
	if err != nil {
		t.Fatal(err)
	}
	if blk.TotalCyc < 2*hot.TotalCyc {
		t.Errorf("blocking %d cyc not >> prefetch %d cyc", blk.TotalCyc, hot.TotalCyc)
	}
	if hot.MaxInFlight < 2 {
		t.Errorf("latency hiding without overlapped fills? MaxInFlight = %d", hot.MaxInFlight)
	}
	if hot.MaxInFlight > cfg.ReorderBuffer {
		t.Errorf("MaxInFlight %d exceeds the reorder buffer %d", hot.MaxInFlight, cfg.ReorderBuffer)
	}
	if hot.MaxReorder > cfg.ReorderBuffer {
		t.Errorf("MaxReorder %d exceeds the reorder buffer %d", hot.MaxReorder, cfg.ReorderBuffer)
	}
	if hot.MaxFragmentFIFO > cfg.FragmentFIFO {
		t.Errorf("MaxFragmentFIFO %d exceeds the FIFO depth %d", hot.MaxFragmentFIFO, cfg.FragmentFIFO)
	}
}

// TestFIFODepthMonotone: more lead never hurts.
func TestFIFODepthMonotone(t *testing.T) {
	tr := randomTrace(1<<14, 7)
	tl, err := NewTimeline(testCacheCfg(), tr)
	if err != nil {
		t.Fatal(err)
	}
	prev := ^uint64(0)
	for _, depth := range []int{0, 2, 4, 8, 16, 32, 64, 128} {
		cfg := Default(testCacheCfg(), Prefetch)
		cfg.FragmentFIFO = depth
		res, err := tl.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalCyc > prev {
			t.Errorf("depth %d: TotalCyc %d worse than shallower FIFO %d", depth, res.TotalCyc, prev)
		}
		prev = res.TotalCyc
	}
}

// TestShallowQueuesThrottle: starving the request FIFO or reorder
// buffer must cost cycles, never crash or deadlock.
func TestShallowQueuesThrottle(t *testing.T) {
	tr := randomTrace(1<<14, 8)
	tl, err := NewTimeline(testCacheCfg(), tr)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := tl.Simulate(Default(testCacheCfg(), Prefetch))
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.RequestFIFO = 1 },
		func(c *Config) { c.ReorderBuffer = 1 },
		func(c *Config) { c.ResultFIFO = 0 },
	} {
		cfg := Default(testCacheCfg(), Prefetch)
		mutate(&cfg)
		res, err := tl.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalCyc < deep.TotalCyc {
			t.Errorf("%+v faster (%d) than the deep machine (%d)", cfg, res.TotalCyc, deep.TotalCyc)
		}
		if res.MaxReorder > cfg.ReorderBuffer {
			t.Errorf("MaxReorder %d exceeds depth %d", res.MaxReorder, cfg.ReorderBuffer)
		}
	}
}

// TestDeterminism: the cycle model is a pure function of (trace, cache,
// config) — repeated runs and the Timeline vs Simulate paths agree
// bit-for-bit.
func TestDeterminism(t *testing.T) {
	tr := randomTrace(1<<14, 11)
	cfg := Default(testCacheCfg(), Prefetch)
	first, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := NewTimeline(testCacheCfg(), tr)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := tl.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("run %d diverged: %+v != %+v", run, again, first)
		}
	}
}

func TestTimelineCacheMismatch(t *testing.T) {
	tl, err := NewTimeline(testCacheCfg(), strideTrace(64, 8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(testCacheCfg(), Prefetch)
	cfg.Cache.SizeBytes = 8 << 10
	var ce *ConfigError
	if _, err := tl.Simulate(cfg); !errors.As(err, &ce) || ce.Field != "cache" {
		t.Errorf("mismatched cache accepted: %v", err)
	}
}

func TestEmptyStream(t *testing.T) {
	res, err := Simulate(Default(testCacheCfg(), Prefetch), cache.NewTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCyc != 0 || res.Fragments != 0 || res.Utilization() != 0 {
		t.Errorf("empty stream produced %+v", res)
	}
	if res.FragmentsPerSecond(100e6) != 0 {
		t.Error("empty stream has a fragment rate")
	}
}
