package cache

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	valid := []Config{
		{SizeBytes: 4096, LineBytes: 32, Ways: 2},
		{SizeBytes: 32 << 10, LineBytes: 128, Ways: 0},
		{SizeBytes: 128 << 10, LineBytes: 64, Ways: 1},
		{SizeBytes: 1 << 10, LineBytes: 4, Ways: 4},
	}
	for _, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", c, err)
		}
	}
	invalid := []Config{
		{SizeBytes: 0, LineBytes: 32},
		{SizeBytes: 3000, LineBytes: 32},
		{SizeBytes: 4096, LineBytes: 3},
		{SizeBytes: 4096, LineBytes: 2},
		{SizeBytes: 16, LineBytes: 32},
		{SizeBytes: 4096, LineBytes: 32, Ways: -1},
		{SizeBytes: 4096, LineBytes: 32, Ways: 3}, // 128 lines not divisible into pow2 sets
	}
	for _, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("%v: expected validation error", c)
		}
	}
}

func TestConfigString(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 0}, "32KB fully-assoc 128B lines"},
		{Config{SizeBytes: 4 << 10, LineBytes: 32, Ways: 1}, "4KB direct-mapped 32B lines"},
		{Config{SizeBytes: 128 << 10, LineBytes: 64, Ways: 2}, "128KB 2-way 64B lines"},
	}
	for _, c := range cases {
		if got := c.cfg.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestFormatSize(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{32, "32B"}, {1024, "1KB"}, {32 << 10, "32KB"}, {1 << 20, "1MB"}, {3 << 20, "3MB"}, {1536, "1536B"},
	}
	for _, c := range cases {
		if got := FormatSize(c.n); got != c.want {
			t.Errorf("FormatSize(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestDirectMappedBasics(t *testing.T) {
	// 4 lines of 32 bytes, direct mapped.
	c := New(Config{SizeBytes: 128, LineBytes: 32, Ways: 1})
	if c.Access(0) {
		t.Error("first access should miss")
	}
	if !c.Access(4) {
		t.Error("same line should hit")
	}
	if !c.Access(31) {
		t.Error("end of line should hit")
	}
	if c.Access(32) {
		t.Error("next line should miss")
	}
	// Address 128 maps to the same set as 0 and evicts it.
	if c.Access(128) {
		t.Error("conflicting line should miss")
	}
	if c.Access(0) {
		t.Error("evicted line should miss")
	}
	s := c.Stats()
	if s.Accesses != 6 || s.Misses != 4 {
		t.Errorf("stats = %+v, want 6 accesses 4 misses", s)
	}
}

func TestTwoWayLRUEviction(t *testing.T) {
	// One set, two ways, 32B lines: addresses 0, 64, 128 all map to set 0.
	c := New(Config{SizeBytes: 64, LineBytes: 32, Ways: 2})
	c.Access(0)  // miss, load A
	c.Access(32) // miss, load B
	c.Access(0)  // hit, A is MRU
	c.Access(64) // miss, evict LRU = B
	if !c.Access(0) {
		t.Error("A should still be resident")
	}
	if c.Access(32) {
		t.Error("B should have been evicted")
	}
}

func TestFullyAssociativeLRU(t *testing.T) {
	c := New(Config{SizeBytes: 128, LineBytes: 32, Ways: 0}) // 4 lines
	for i := uint64(0); i < 4; i++ {
		if c.Access(i * 32) {
			t.Fatalf("access %d should miss", i)
		}
	}
	for i := uint64(0); i < 4; i++ {
		if !c.Access(i * 32) {
			t.Fatalf("access %d should hit", i)
		}
	}
	c.Access(4 * 32) // evicts line 0 (LRU)
	if c.Access(0) {
		t.Error("line 0 should have been evicted")
	}
}

func TestFlush(t *testing.T) {
	for _, ways := range []int{0, 1, 2} {
		c := New(Config{SizeBytes: 128, LineBytes: 32, Ways: ways})
		c.Access(0)
		if !c.Contains(0) {
			t.Fatalf("ways=%d: line should be resident", ways)
		}
		c.Flush()
		if c.Contains(0) {
			t.Errorf("ways=%d: line resident after flush", ways)
		}
		if c.Access(0) {
			t.Errorf("ways=%d: hit after flush", ways)
		}
	}
}

func TestClassificationColdOnly(t *testing.T) {
	// Sequential streaming through a large cache: every miss is cold.
	c := NewClassifying(Config{SizeBytes: 1 << 20, LineBytes: 32, Ways: 2})
	for a := uint64(0); a < 1<<14; a += 4 {
		c.Access(a)
	}
	s := c.Stats()
	if s.Misses != s.Cold {
		t.Errorf("all misses should be cold: %+v", s)
	}
	if s.Capacity != 0 || s.Conflict != 0 {
		t.Errorf("no capacity/conflict expected: %+v", s)
	}
	wantMisses := uint64(1 << 14 / 32)
	if s.Misses != wantMisses {
		t.Errorf("misses = %d, want %d", s.Misses, wantMisses)
	}
}

func TestClassificationCapacity(t *testing.T) {
	// Cyclic sweep over 8 lines through a 4-line FA cache: after the first
	// pass every access misses, and all non-cold misses are capacity.
	c := NewClassifying(Config{SizeBytes: 128, LineBytes: 32, Ways: 0})
	for pass := 0; pass < 4; pass++ {
		for i := uint64(0); i < 8; i++ {
			c.Access(i * 32)
		}
	}
	s := c.Stats()
	if s.Cold != 8 {
		t.Errorf("cold = %d, want 8", s.Cold)
	}
	if s.Conflict != 0 {
		t.Errorf("conflict = %d, want 0 in fully associative", s.Conflict)
	}
	if s.Capacity != s.Misses-s.Cold {
		t.Errorf("capacity = %d, want %d", s.Capacity, s.Misses-s.Cold)
	}
	if s.Misses != 32 {
		t.Errorf("misses = %d, want 32 (every access misses under cyclic LRU)", s.Misses)
	}
}

func TestClassificationConflict(t *testing.T) {
	// Direct-mapped 4-line cache; ping-pong between two addresses that
	// map to the same set. A fully-associative cache of the same size
	// would hold both, so the misses are conflicts.
	c := NewClassifying(Config{SizeBytes: 128, LineBytes: 32, Ways: 1})
	for i := 0; i < 10; i++ {
		c.Access(0)
		c.Access(128)
	}
	s := c.Stats()
	if s.Cold != 2 {
		t.Errorf("cold = %d, want 2", s.Cold)
	}
	if s.Conflict != s.Misses-2 {
		t.Errorf("conflict = %d, want %d", s.Conflict, s.Misses-2)
	}
	if s.Capacity != 0 {
		t.Errorf("capacity = %d, want 0", s.Capacity)
	}
	if s.Misses != 20 {
		t.Errorf("misses = %d, want 20", s.Misses)
	}
}

func TestClassificationPartition(t *testing.T) {
	// Property: on random traces, Cold+Capacity+Conflict == Misses and
	// higher associativity at fixed size never increases conflict+capacity
	// + cold sum below cold count.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		addrs := make([]uint64, 5000)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(1<<14)) &^ 3
		}
		for _, ways := range []int{0, 1, 2, 4} {
			c := NewClassifying(Config{SizeBytes: 1 << 10, LineBytes: 32, Ways: ways})
			for _, a := range addrs {
				c.Access(a)
			}
			s := c.Stats()
			if s.Cold+s.Capacity+s.Conflict != s.Misses {
				t.Fatalf("ways=%d: 3C partition broken: %+v", ways, s)
			}
			if ways == 0 && s.Conflict != 0 {
				t.Fatalf("fully associative cache reported conflicts: %+v", s)
			}
		}
	}
}

func TestFullyAssocMatchesShadow(t *testing.T) {
	// Property: an N-way cache where N == number of lines behaves exactly
	// like the fully-associative cache (single set, LRU).
	rng := rand.New(rand.NewSource(7))
	addrs := make([]uint64, 20000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 12))
	}
	cfgFA := Config{SizeBytes: 512, LineBytes: 32, Ways: 0}
	cfgNW := Config{SizeBytes: 512, LineBytes: 32, Ways: 16} // 16 lines, 16 ways
	fa, nw := New(cfgFA), New(cfgNW)
	for _, a := range addrs {
		if fa.Access(a) != nw.Access(a) {
			t.Fatal("N-way==lines cache diverged from fully associative")
		}
	}
}

func TestMissRateMonotonicInSize(t *testing.T) {
	// Property (for FA LRU — stack inclusion): bigger caches never miss
	// more on the same trace.
	rng := rand.New(rand.NewSource(11))
	addrs := make([]uint64, 30000)
	for i := range addrs {
		// Mixture of sequential and random accesses.
		if rng.Intn(4) == 0 {
			addrs[i] = uint64(rng.Intn(1 << 14))
		} else {
			addrs[i] = uint64((i * 4) % (1 << 13))
		}
	}
	var prev uint64 = ^uint64(0)
	for _, size := range []int{256, 512, 1024, 2048, 4096} {
		c := New(Config{SizeBytes: size, LineBytes: 32, Ways: 0})
		for _, a := range addrs {
			c.Access(a)
		}
		m := c.Stats().Misses
		if m > prev {
			t.Fatalf("size %d: misses %d > smaller cache's %d", size, m, prev)
		}
		prev = m
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Accesses: 200, Misses: 20, Cold: 5}
	if s.MissRate() != 0.1 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
	if s.ColdRate() != 0.025 {
		t.Errorf("ColdRate = %v", s.ColdRate())
	}
	if s.BytesFetched(64) != 20*64 {
		t.Errorf("BytesFetched = %v", s.BytesFetched(64))
	}
	var zero Stats
	if zero.MissRate() != 0 || zero.ColdRate() != 0 {
		t.Error("zero stats should have zero rates")
	}
}

func TestTryNewRejectsInvalid(t *testing.T) {
	if _, err := TryNew(Config{SizeBytes: 100, LineBytes: 32}); err == nil {
		t.Error("expected error for non-power-of-two size")
	}
	defer func() {
		if recover() == nil {
			t.Error("New should panic on invalid config")
		}
	}()
	New(Config{SizeBytes: 100, LineBytes: 32})
}

func TestSinkHelpers(t *testing.T) {
	var got []uint64
	s := SinkFunc(func(a uint64) { got = append(got, a) })
	tee := Tee(s, Discard)
	tee.Access(1)
	tee.Access(2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("tee delivered %v", got)
	}
	Discard.Access(99) // must not panic
}

func TestContainsDoesNotPerturbLRU(t *testing.T) {
	c := New(Config{SizeBytes: 64, LineBytes: 32, Ways: 2})
	c.Access(0)
	c.Access(32)
	// Probing 0 must not refresh it; 64 should still evict 0 (LRU).
	if !c.Contains(0) {
		t.Fatal("line 0 should be resident")
	}
	c.Access(64)
	if c.Contains(0) {
		t.Error("line 0 should have been evicted as LRU despite Contains probe")
	}
}

func TestQuickHitAfterAccess(t *testing.T) {
	// Property: immediately re-accessing any address hits, for any legal
	// configuration.
	f := func(addrSeed uint32, sizeExp, lineExp, waysExp uint8) bool {
		size := 1 << (6 + sizeExp%10) // 64B..32KB
		lineB := 1 << (2 + lineExp%6) // 4..128B
		if lineB > size {
			return true
		}
		ways := int(waysExp % 4) // 0..3
		cfg := Config{SizeBytes: size, LineBytes: lineB, Ways: ways}
		if cfg.Validate() != nil {
			return true
		}
		c := New(cfg)
		addr := uint64(addrSeed)
		c.Access(addr)
		return c.Access(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestConfigErrorFromEveryConstructor(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 32, Ways: 1},            // zero size
		{SizeBytes: 3 << 10, LineBytes: 32, Ways: 1},      // non-power-of-two size
		{SizeBytes: 1 << 10, LineBytes: 48, Ways: 1},      // non-power-of-two line
		{SizeBytes: 1 << 10, LineBytes: 32, Ways: 64},     // ways > lines
		{SizeBytes: 256, LineBytes: 512, Ways: 1},         // size < line
		{SizeBytes: 1 << 10, LineBytes: 32, Ways: -1},     // negative ways
		{SizeBytes: 1 << 10, LineBytes: 32, Policy: FIFO}, // FIFO needs sets
	}
	for _, cfg := range bad {
		var ce *ConfigError
		if err := cfg.Validate(); !errors.As(err, &ce) {
			t.Errorf("Validate(%+v) = %v, want *ConfigError", cfg, err)
			continue
		}
		if _, err := TryNew(cfg); !errors.As(err, &ce) {
			t.Errorf("TryNew(%+v) = %v, want *ConfigError", cfg, err)
		}
		if _, err := TryNewClassifying(cfg); !errors.As(err, &ce) {
			t.Errorf("TryNewClassifying(%+v) = %v, want *ConfigError", cfg, err)
		}
		if _, err := NewSectored(cfg, 32); !errors.As(err, &ce) {
			t.Errorf("NewSectored(%+v) = %v, want *ConfigError", cfg, err)
		}
	}
	// Sectored-specific rejections are ConfigErrors too.
	good := Config{SizeBytes: 4 << 10, LineBytes: 128, Ways: 2}
	var ce *ConfigError
	if _, err := NewSectored(good, 3); !errors.As(err, &ce) {
		t.Errorf("NewSectored bad sector = %v, want *ConfigError", err)
	}
	if _, err := NewSectored(Config{SizeBytes: 4 << 10, LineBytes: 128, Ways: 0}, 32); !errors.As(err, &ce) {
		t.Errorf("NewSectored fully-assoc = %v, want *ConfigError", err)
	}
}
