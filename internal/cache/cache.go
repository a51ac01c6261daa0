// Package cache implements the trace-driven texture-cache simulator at the
// heart of the study: a set-associative cache with LRU replacement,
// parameterized by total size, line size and associativity, with optional
// cold/capacity/conflict (3C) miss classification and an LRU stack-distance
// profiler that yields fully-associative miss rates at every cache size in
// a single pass over the trace.
//
// Addresses are byte addresses in the simulated texture memory. Texels are
// 32 bits and all layouts emit 4-byte-aligned addresses, so a texel access
// never straddles a cache line.
package cache

import (
	"fmt"
	"math/bits"
)

// Sink consumes a stream of texel byte addresses. The fragment generator
// calls Access once per texel fetch, mirroring the paper's simulator where
// "whenever the software-based fragment generator accesses a texel from
// memory, it also makes a call to the cache simulator".
type Sink interface {
	Access(addr uint64)
}

// Replacement selects the victim policy of a set-associative cache.
type Replacement int

const (
	// LRU evicts the least recently used way (the paper's policy).
	LRU Replacement = iota
	// FIFO evicts the oldest-filled way regardless of use.
	FIFO
	// Random evicts a deterministic-pseudo-random way.
	Random
)

// String names the policy.
func (r Replacement) String() string {
	switch r {
	case FIFO:
		return "FIFO"
	case Random:
		return "random"
	default:
		return "LRU"
	}
}

// Config describes a cache organization by the three parameters the paper
// studies: cache size, line size and associativity, plus the replacement
// policy (LRU in all of the paper's experiments; the alternatives exist
// for the ablation study).
type Config struct {
	// SizeBytes is the total data capacity in bytes. Must be a power of
	// two and a multiple of LineBytes.
	SizeBytes int
	// LineBytes is the line (block transfer) size in bytes. Must be a
	// power of two, at least 4.
	LineBytes int
	// Ways is the set associativity: 1 for direct mapped, N for N-way,
	// and 0 for fully associative.
	Ways int
	// Policy is the replacement policy. Non-LRU policies require a
	// set-associative organization (Ways > 0).
	Policy Replacement
}

// ConfigError reports a cache configuration rejected by validation. All
// validation paths in this package (Config.Validate, the checked
// constructors, NewSectored) return errors of this type, so callers can
// distinguish bad input from simulation failures with errors.As.
type ConfigError struct {
	// Config is the rejected configuration.
	Config Config
	// Reason explains what was wrong with it.
	Reason string
}

func (e *ConfigError) Error() string { return "cache: invalid config: " + e.Reason }

// errf builds a *ConfigError for the configuration.
func (c Config) errf(format string, args ...any) *ConfigError {
	return &ConfigError{Config: c, Reason: fmt.Sprintf(format, args...)}
}

// Validate reports whether the configuration is internally consistent.
// A non-nil result is always a *ConfigError.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || bits.OnesCount(uint(c.SizeBytes)) != 1 {
		return c.errf("size %d is not a positive power of two", c.SizeBytes)
	}
	if c.LineBytes < 4 || bits.OnesCount(uint(c.LineBytes)) != 1 {
		return c.errf("line size %d is not a power of two >= 4", c.LineBytes)
	}
	if c.SizeBytes < c.LineBytes {
		return c.errf("size %d smaller than line %d", c.SizeBytes, c.LineBytes)
	}
	if c.Ways < 0 {
		return c.errf("negative associativity %d", c.Ways)
	}
	if c.Policy != LRU && c.Ways == 0 {
		return c.errf("%v replacement requires set associativity", c.Policy)
	}
	if c.Policy < LRU || c.Policy > Random {
		return c.errf("unknown replacement policy %d", int(c.Policy))
	}
	if c.Ways > 0 {
		if c.NumLines()%c.Ways != 0 {
			return c.errf("%d lines not divisible by %d ways", c.NumLines(), c.Ways)
		}
		if bits.OnesCount(uint(c.NumSets())) != 1 {
			return c.errf("%d sets is not a power of two", c.NumSets())
		}
	}
	return nil
}

// NumLines returns the number of cache lines.
func (c Config) NumLines() int { return c.SizeBytes / c.LineBytes }

// NumSets returns the number of sets (1 when fully associative).
func (c Config) NumSets() int {
	if c.Ways == 0 {
		return 1
	}
	return c.NumLines() / c.Ways
}

// String renders the configuration in the style used by the paper's
// figures, e.g. "32KB 2-way 128B lines".
func (c Config) String() string {
	assoc := "fully-assoc"
	switch {
	case c.Ways == 1:
		assoc = "direct-mapped"
	case c.Ways > 1:
		assoc = fmt.Sprintf("%d-way", c.Ways)
	}
	s := fmt.Sprintf("%s %s %dB lines", FormatSize(c.SizeBytes), assoc, c.LineBytes)
	if c.Policy != LRU {
		s += " " + c.Policy.String()
	}
	return s
}

// FormatSize renders a byte count as the usual KB/MB shorthand.
func FormatSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Stats accumulates access and miss counts. When classification is
// enabled, Cold+Capacity+Conflict == Misses.
type Stats struct {
	Accesses uint64
	Misses   uint64
	Cold     uint64
	Capacity uint64
	Conflict uint64
}

// MissRate returns Misses/Accesses, or 0 for an empty trace.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// ColdRate returns Cold/Accesses, or 0 for an empty trace.
func (s Stats) ColdRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Cold) / float64(s.Accesses)
}

// BytesFetched returns the memory traffic implied by the misses for the
// given line size: every miss fills one full line from memory.
func (s Stats) BytesFetched(lineBytes int) uint64 {
	return s.Misses * uint64(lineBytes)
}

// line holds one cache line's tag and LRU timestamp. A valid line has
// tag != invalidTag. (The sectored cache keeps line metadata in this
// form; Cache itself flattens it into parallel tag/stamp arrays.)
type line struct {
	tag     uint64
	lastUse uint64
}

const invalidTag = ^uint64(0)

// Cache is a set-associative LRU cache simulator. The zero value is not
// usable; construct with New or NewClassifying.
//
// Line metadata is stored structure-of-arrays: the hit scan — the hot
// path a sweep runs once per texel per configuration — touches only the
// contiguous tags array, and recency stamps are read solely on the miss
// path when a victim must be chosen.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	ways      int
	// tags and stamps are parallel arrays of NumLines entries; set i
	// occupies [i*ways, (i+1)*ways). stamps holds the last-use clock
	// under LRU and the fill clock under FIFO.
	tags       []uint64
	stamps     []uint64
	clock      uint64
	stats      Stats
	full       *falru          // fully-associative path (Ways == 0)
	shadow     *falru          // equal-size FA shadow for 3C classification
	everLoaded map[uint64]bool // lines ever resident, for cold-miss detection

	// onMiss, when non-nil, observes the byte address of every line
	// filled from memory — the input stream for DRAM and prefetch
	// timing models.
	onMiss func(lineByteAddr uint64)

	// rng drives Random replacement; deterministic so runs reproduce.
	rng uint64

	// last is the line the batch kernel touched last, invalidTag when
	// none, and lastWay its index into tags and stamps. Scalar Access
	// and Flush clear it.
	last    uint64
	lastWay int
}

// New returns a cache simulator for cfg. It panics if cfg is invalid,
// since configurations are experiment constants, not runtime input.
func New(cfg Config) *Cache {
	c, err := TryNew(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// TryNew is like New but reports invalid configurations as errors.
func TryNew(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		ways:      cfg.Ways,
		last:      invalidTag,
		rng:       0x9E3779B97F4A7C15,
	}
	if cfg.Ways == 0 {
		c.full = newFALRU(cfg.NumLines())
	} else {
		c.setMask = uint64(cfg.NumSets() - 1)
		c.tags = make([]uint64, cfg.NumLines())
		c.stamps = make([]uint64, cfg.NumLines())
		for i := range c.tags {
			c.tags[i] = invalidTag
		}
	}
	return c, nil
}

// NewClassifying returns a cache simulator that additionally classifies
// every miss as cold, capacity or conflict using the standard 3C model:
// cold misses touch a line never resident before; of the remainder, a miss
// that would also miss in a fully-associative LRU cache of equal size is a
// capacity miss, and the rest are conflict misses.
func NewClassifying(cfg Config) *Cache {
	c, err := TryNewClassifying(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// TryNewClassifying is like NewClassifying but reports invalid
// configurations as errors (*ConfigError) instead of panicking.
func TryNewClassifying(cfg Config) (*Cache, error) {
	c, err := TryNew(cfg)
	if err != nil {
		return nil, err
	}
	c.everLoaded = make(map[uint64]bool)
	if c.full == nil {
		c.shadow = newFALRU(cfg.NumLines())
	}
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the counters accumulated so far.
func (c *Cache) Stats() Stats { return c.stats }

// Flush invalidates all lines but keeps statistics, mirroring the paper's
// note that "the caches can be flushed if necessary when the textures
// change".
func (c *Cache) Flush() {
	if c.full != nil {
		c.full.reset()
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	if c.shadow != nil {
		c.shadow.reset()
	}
	c.last = invalidTag
}

// Access presents one texel byte address to the cache and returns true on
// a hit. Use Sink for the callback-style view that ReplayStream expects.
func (c *Cache) Access(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	c.stats.Accesses++
	c.clock++
	c.last = invalidTag

	var hit bool
	if c.full != nil {
		hit = c.full.access(lineAddr)
	} else {
		hit = c.accessSetAssoc(lineAddr)
	}
	if hit {
		if c.shadow != nil {
			c.shadow.access(lineAddr)
		}
		return true
	}
	c.stats.Misses++
	if c.onMiss != nil {
		c.onMiss(lineAddr << c.lineShift)
	}
	if c.everLoaded != nil {
		cold := !c.everLoaded[lineAddr]
		if cold {
			c.everLoaded[lineAddr] = true
		}
		switch {
		case cold:
			c.stats.Cold++
		case c.shadow == nil: // fully associative: no conflicts by definition
			c.stats.Capacity++
		case c.shadow.access(lineAddr):
			c.stats.Conflict++
		default:
			c.stats.Capacity++
		}
		if c.shadow != nil && cold {
			c.shadow.access(lineAddr)
		}
	}
	return false
}

// AccessBatch presents every address of addrs to the cache in order,
// exactly as len(addrs) Access calls would, and returns the number of
// hits. The replay paths hand whole blocks here instead of making one
// interface call per address. Every LRU cache without a miss observer —
// set-associative or fully associative, plain or 3C-classifying —
// takes a block kernel; FIFO, random and miss-observed caches keep the
// scalar loop. Final cache state and statistics are bit-identical
// either way.
func (c *Cache) AccessBatch(addrs []uint64) int {
	if c.onMiss != nil || c.cfg.Policy != LRU {
		hits := 0
		for _, a := range addrs {
			if c.Access(a) {
				hits++
			}
		}
		return hits
	}
	var hits int
	if c.full != nil {
		hits = c.batchFull(addrs)
	} else {
		hits = c.batchSets(addrs)
	}
	c.stats.Accesses += uint64(len(addrs))
	c.stats.Misses += uint64(len(addrs) - hits)
	return hits
}

// batchSets is the block kernel of a set-associative LRU cache, with
// the geometry and the clock in registers. A repeat of the previous
// line hits in the cache and in the 3C shadow and reorders neither, so
// it only refreshes its way's stamp. Any other access probes its set as
// Access does; a classifying cache then touches the shadow on a hit
// and classifies a miss.
func (c *Cache) batchSets(addrs []uint64) int {
	shift, mask, ways := c.lineShift, c.setMask, c.ways
	tags, stamps, shadow := c.tags, c.stamps, c.shadow
	classify := c.everLoaded != nil
	clock, last, lastWay := c.clock, c.last, c.lastWay
	hits := 0
	for _, addr := range addrs {
		lineAddr := addr >> shift
		clock++
		if lineAddr == last {
			stamps[lastWay] = clock
			hits++
			continue
		}
		base := int(lineAddr&mask) * ways
		set := tags[base : base+ways : base+ways]
		way, hit := -1, false
		for i, tag := range set {
			if tag == lineAddr {
				way, hit = i, true
				break
			}
			if tag == invalidTag && way == -1 {
				way = i
			}
		}
		if !hit {
			if way == -1 {
				st := stamps[base : base+ways : base+ways]
				oldest := st[0]
				way = 0
				for i := 1; i < len(st); i++ {
					if st[i] < oldest {
						oldest = st[i]
						way = i
					}
				}
			}
			set[way] = lineAddr
		}
		stamps[base+way] = clock
		last, lastWay = lineAddr, base+way
		switch {
		case hit:
			hits++
			if shadow != nil {
				shadow.access(lineAddr)
			}
		case classify:
			c.classifyMiss(lineAddr)
		}
	}
	c.clock, c.last, c.lastWay = clock, last, lastWay
	return hits
}

// batchFull is the block kernel of a fully-associative LRU cache. A
// repeat of the previous line is already the most recent entry, so it
// hits without the index lookup.
func (c *Cache) batchFull(addrs []uint64) int {
	shift, full := c.lineShift, c.full
	classify := c.everLoaded != nil
	last := c.last
	hits := 0
	for _, addr := range addrs {
		lineAddr := addr >> shift
		if lineAddr == last {
			hits++
			continue
		}
		last = lineAddr
		switch {
		case full.access(lineAddr):
			hits++
		case classify:
			c.classifyMiss(lineAddr)
		}
	}
	c.clock += uint64(len(addrs))
	c.last = last
	return hits
}

// classifyMiss splits a miss of line lineAddr into cold, capacity or
// conflict exactly as Access does, keeping the 3C shadow in step.
func (c *Cache) classifyMiss(lineAddr uint64) {
	switch {
	case !c.everLoaded[lineAddr]:
		c.everLoaded[lineAddr] = true
		c.stats.Cold++
		if c.shadow != nil {
			c.shadow.access(lineAddr)
		}
	case c.shadow == nil: // fully associative: no conflicts by definition
		c.stats.Capacity++
	case c.shadow.access(lineAddr):
		c.stats.Conflict++
	default:
		c.stats.Capacity++
	}
}

func (c *Cache) accessSetAssoc(lineAddr uint64) bool {
	base := int(lineAddr&c.setMask) * c.ways
	tags := c.tags[base : base+c.ways : base+c.ways]
	victim := -1
	for i, tag := range tags {
		if tag == lineAddr {
			// A hit refreshes recency under LRU only; FIFO and random
			// ignore use.
			if c.cfg.Policy == LRU {
				c.stamps[base+i] = c.clock
			}
			return true
		}
		if tag == invalidTag && victim == -1 {
			// The first invalid way is always the preferred victim.
			victim = i
		}
	}
	if victim == -1 {
		if c.cfg.Policy == Random {
			victim = int(c.rngNext() % uint64(c.ways))
		} else {
			// LRU and FIFO both evict the smallest timestamp (unique,
			// since the clock advances every access); they differ in
			// whether hits refreshed it above.
			stamps := c.stamps[base : base+c.ways]
			oldest := stamps[0]
			victim = 0
			for i := 1; i < len(stamps); i++ {
				if stamps[i] < oldest {
					oldest = stamps[i]
					victim = i
				}
			}
		}
	}
	tags[victim] = lineAddr
	c.stamps[base+victim] = c.clock
	return false
}

// rngNext advances the deterministic xorshift used by Random replacement.
func (c *Cache) rngNext() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

// Contains reports whether the line holding addr is currently resident.
// It does not touch LRU state or statistics; intended for tests.
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	if c.full != nil {
		return c.full.contains(lineAddr)
	}
	set := int(lineAddr&c.setMask) * c.ways
	for _, tag := range c.tags[set : set+c.ways] {
		if tag == lineAddr {
			return true
		}
	}
	return false
}

// SetMissObserver installs fn to receive the byte address of every line
// fill (miss), in access order. Pass nil to remove. The observer feeds
// the DRAM and prefetch timing models, which need the fill stream rather
// than the access stream.
func (c *Cache) SetMissObserver(fn func(lineByteAddr uint64)) { c.onMiss = fn }

// cacheSink adapts a Cache to the Sink interface, discarding the hit
// result that Access returns. It also satisfies the replay loops' batch
// fast path, so a cache behind a Sink still consumes whole blocks.
type cacheSink struct{ c *Cache }

func (s cacheSink) Access(addr uint64) { s.c.Access(addr) }

func (s cacheSink) AccessBatch(addrs []uint64) { s.c.AccessBatch(addrs) }

// Sink returns a Sink view of the cache for use with ReplayStream and the
// fragment generator's access callback.
func (c *Cache) Sink() Sink { return cacheSink{c} }

// sinkFunc lets a plain function act as a Sink.
type sinkFunc func(uint64)

func (f sinkFunc) Access(addr uint64) { f(addr) }

// SinkFunc wraps fn as a Sink.
func SinkFunc(fn func(uint64)) Sink { return sinkFunc(fn) }

// Tee returns a Sink that forwards every access to all of sinks.
func Tee(sinks ...Sink) Sink {
	return sinkFunc(func(addr uint64) {
		for _, s := range sinks {
			s.Access(addr)
		}
	})
}

// Discard is a Sink that ignores all accesses.
var Discard Sink = sinkFunc(func(uint64) {})
