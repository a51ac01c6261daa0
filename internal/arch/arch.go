// Package arch is a deterministic cycle-level model of the prefetching
// texture-cache architecture of Igehy, Eldridge & Proudfoot 1998, the
// follow-up design Section 7 of Hakura & Gupta gestures at. The texture
// unit is a four-queue pipeline:
//
//	fragments -> [fragment FIFO] -> tags -> [request FIFO] -> memory
//	                                  \-> [reorder buffer] <- fills
//	          <- [result FIFO] <- filter <-/
//
// Every texel access tag-checks at the front of the fragment FIFO.
// Hits never stall: the access rides the FIFO and reads the cache when
// it reaches the filter. Misses enqueue a fill request (bounded by the
// miss-request FIFO), reserve a reorder-buffer slot for the returning
// line, and are hidden as long as the FIFO transit time covers the fill
// latency. A blocking-cache baseline — the paper's Section 6 machine,
// which stalls the whole pipeline on every miss — runs through the same
// cycle recurrence with the fragment FIFO collapsed, so the two
// organizations are directly comparable on identical traces.
//
// The model is timing-only: tag state advances at front time exactly as
// in plain replay (the fill is in flight before the consuming fragment
// arrives), so the miss pattern is bit-identical to cache.New over the
// same stream and only the cycle counts differ between pipelines.
// Internally times advance in access units (TexelsPerCycle units per
// pipeline cycle) to keep the arithmetic integral and deterministic.
package arch

import (
	"fmt"

	"texcache/internal/cache"
	"texcache/internal/obs"
)

// Pipeline selects the texture-unit organization the cycle model runs.
type Pipeline int

const (
	// Blocking is the baseline: the pipeline stalls for the full fill
	// round trip on every miss, so execution time grows linearly with
	// memory latency.
	Blocking Pipeline = iota
	// Prefetch is the Igehy-style pipeline: misses issue fills at tag
	// time and the fragment FIFO gives them lead time to complete.
	Prefetch
)

// String returns the wire name of the pipeline.
func (p Pipeline) String() string {
	if p == Prefetch {
		return "prefetch"
	}
	return "blocking"
}

// Paper-point defaults: the Section 7 fragment machine (4 texel reads
// per cycle, 8-texel trilinear fragments) in front of a memory system
// whose 100-cycle fill latency dominates its 4-cycle line transfer —
// the latency-tolerance regime the Igehy experiment sweeps.
const (
	DefaultFragmentFIFO      = 64
	DefaultRequestFIFO       = 32
	DefaultReorderBuffer     = 32
	DefaultResultFIFO        = 8
	DefaultTexelsPerCycle    = 4
	DefaultTexelsPerFragment = 8
	DefaultFillLatency       = 100
	DefaultFillOccupancy     = 4
)

// maxQueue bounds every queue depth and timing parameter; the limit is
// a sanity cap on simulator memory, far beyond any plausible hardware.
const maxQueue = 1 << 16

// Config describes one texture-unit organization for the cycle model.
type Config struct {
	// Cache is the tag-array organization shared by both pipelines.
	Cache cache.Config
	// Pipeline selects Blocking or Prefetch.
	Pipeline Pipeline
	// FragmentFIFO is the fragment queue depth in fragments: the lead
	// the tag stage runs ahead of the filter stage. Zero under Prefetch
	// degenerates to the blocking timing (tag and filter in lockstep).
	FragmentFIFO int
	// RequestFIFO bounds outstanding fill requests; when it fills, tag
	// checking stalls until the memory channel drains a request.
	RequestFIFO int
	// ReorderBuffer bounds fills awaiting consumption: each miss
	// reserves a slot at tag time and frees it when the filter consumes
	// the filled line.
	ReorderBuffer int
	// ResultFIFO is the filtered-fragment output queue depth in
	// fragments; zero means the filter hands each fragment off before
	// starting the next.
	ResultFIFO int
	// TexelsPerCycle is the cache read rate (4 in the paper's machine).
	TexelsPerCycle int
	// TexelsPerFragment is the filter cost (8 for trilinear).
	TexelsPerFragment int
	// FillLatency is the cycles from fill issue until the line starts
	// arriving.
	FillLatency int
	// FillOccupancy is the cycles one fill occupies the single memory
	// channel; back-to-back fills serialize on it.
	FillOccupancy int
}

// Default returns the paper-point machine for the given cache and
// pipeline.
func Default(c cache.Config, p Pipeline) Config {
	return Config{
		Cache:             c,
		Pipeline:          p,
		FragmentFIFO:      DefaultFragmentFIFO,
		RequestFIFO:       DefaultRequestFIFO,
		ReorderBuffer:     DefaultReorderBuffer,
		ResultFIFO:        DefaultResultFIFO,
		TexelsPerCycle:    DefaultTexelsPerCycle,
		TexelsPerFragment: DefaultTexelsPerFragment,
		FillLatency:       DefaultFillLatency,
		FillOccupancy:     DefaultFillOccupancy,
	}
}

// ConfigError reports a rejected architecture configuration; Validate
// (and everything that calls it) returns errors of this type, so
// callers can distinguish bad input from simulation failures with
// errors.As. Field uses the wire names of the architecture request
// ("fragment_fifo", "fill_latency", ...).
type ConfigError struct {
	// Config is the rejected configuration.
	Config Config
	// Field names the parameter at fault, in wire form.
	Field string
	// Reason explains what was wrong with it.
	Reason string
}

func (e *ConfigError) Error() string {
	return "arch: invalid config: " + e.Field + ": " + e.Reason
}

// errf builds a *ConfigError for the configuration.
func (c Config) errf(field, format string, args ...any) *ConfigError {
	return &ConfigError{Config: c, Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Validate reports whether the configuration is usable. A non-nil
// result is a *ConfigError naming the field, except for cache problems,
// which pass through as the cache package's own *cache.ConfigError.
func (c Config) Validate() error {
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if c.Pipeline != Blocking && c.Pipeline != Prefetch {
		return c.errf("pipeline", "unknown pipeline %d: want Blocking or Prefetch", int(c.Pipeline))
	}
	for _, f := range []struct {
		name  string
		v, lo int
	}{
		{"fragment_fifo", c.FragmentFIFO, 0},
		{"request_fifo", c.RequestFIFO, 1},
		{"reorder_buffer", c.ReorderBuffer, 1},
		{"result_fifo", c.ResultFIFO, 0},
		{"texels_per_cycle", c.TexelsPerCycle, 1},
		{"texels_per_fragment", c.TexelsPerFragment, 1},
		{"fill_latency", c.FillLatency, 0},
		{"fill_occupancy", c.FillOccupancy, 1},
	} {
		if f.v < f.lo {
			return c.errf(f.name, "%d: must be >= %d", f.v, f.lo)
		}
		if f.v > maxQueue {
			return c.errf(f.name, "%d: must be <= %d", f.v, maxQueue)
		}
	}
	return nil
}

// Result reports the timing outcome of running one frame's texel
// stream through the pipeline.
type Result struct {
	// Accesses and Misses describe the trace against the tag array;
	// they are identical across pipelines sharing a Timeline.
	Accesses uint64
	Misses   uint64
	// Fragments is the number of filtered fragments retired.
	Fragments uint64
	// TotalCyc is when the last fragment leaves the result FIFO;
	// ComputeCyc is the zero-miss lower bound (the raw read rate);
	// StallCyc is their difference, the cycles memory cost the machine.
	TotalCyc   uint64
	ComputeCyc uint64
	StallCyc   uint64
	// MaxInFlight is the high-water count of fills issued but not yet
	// returned; MaxReorder the high-water reorder-buffer occupancy;
	// MaxFragmentFIFO the high-water fragment-FIFO occupancy in
	// fragments.
	MaxInFlight     int
	MaxReorder      int
	MaxFragmentFIFO int
}

// Utilization returns compute cycles over total cycles (1 = fully
// hidden latency).
func (r Result) Utilization() float64 {
	if r.TotalCyc == 0 {
		return 0
	}
	return float64(r.ComputeCyc) / float64(r.TotalCyc)
}

// FragmentsPerSecond converts the cycle count into rendering
// performance at the given clock.
func (r Result) FragmentsPerSecond(clockHz float64) float64 {
	if r.TotalCyc == 0 {
		return 0
	}
	return float64(r.Fragments) / (float64(r.TotalCyc) / clockHz)
}

// Timeline is the cache half of a simulation, precomputed: the miss
// positions of one address stream against one tag-array configuration.
// Building it costs one cache replay; Simulate then reruns only the
// timing recurrence, so sweeping latencies and FIFO depths over the
// same (trace, cache) point is cheap. A Timeline is immutable after
// NewTimeline and safe for concurrent Simulate calls.
type Timeline struct {
	cfg      cache.Config
	accesses uint64
	misses   []uint64 // ascending access indices that missed
}

// NewTimeline replays the stream through a fresh cache and records
// where the misses fall. The tag array advances at tag-check order —
// the same order plain replay uses — so Misses matches cache.New over
// the same stream exactly.
func NewTimeline(cfg cache.Config, s cache.AddrStream) (*Timeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cache.New(cfg)
	t := &Timeline{cfg: cfg}
	cur := s.Cursor()
	for block := cur.Next(); block != nil; block = cur.Next() {
		for _, a := range block {
			if !c.Access(a) {
				t.misses = append(t.misses, t.accesses)
			}
			t.accesses++
		}
	}
	obs.Default().Sub("arch").Counter("timelines").Inc()
	return t, nil
}

// Accesses returns the stream length the timeline was built from.
func (t *Timeline) Accesses() uint64 { return t.accesses }

// MissCount returns how many accesses missed.
func (t *Timeline) MissCount() uint64 { return uint64(len(t.misses)) }

// Misses returns the ascending access indices that missed. The slice is
// the timeline's own storage and must be treated as read-only.
func (t *Timeline) Misses() []uint64 { return t.misses }

// CacheConfig returns the tag-array configuration the timeline holds
// miss positions for.
func (t *Timeline) CacheConfig() cache.Config { return t.cfg }

// Simulate runs the cycle recurrence for one pipeline configuration
// over the recorded miss pattern. cfg.Cache must equal the
// configuration the timeline was built with.
func (t *Timeline) Simulate(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Cache != t.cfg {
		return Result{}, cfg.errf("cache", "timeline was built for %s", t.cfg)
	}

	perCycle := uint64(cfg.TexelsPerCycle)
	fragTex := uint64(cfg.TexelsPerFragment)
	latU := uint64(cfg.FillLatency) * perCycle
	occU := uint64(cfg.FillOccupancy) * perCycle

	// The tag stage leads the filter stage by the fragment FIFO's texel
	// capacity. Lead 1 is the fused blocking machine: the tag check of
	// access i waits for the filter to finish access i-1, which is
	// exactly "stall the pipeline until the fill returns". Prefetch
	// with FragmentFIFO 0 degenerates to the same recurrence.
	lead := uint64(cfg.FragmentFIFO) * fragTex
	if cfg.Pipeline == Blocking || lead < 1 {
		lead = 1
	}
	reqDepth := cfg.RequestFIFO
	robDepth := cfg.ReorderBuffer
	resDepth := uint64(cfg.ResultFIFO)

	res := Result{Accesses: t.accesses, Misses: uint64(len(t.misses))}
	n := t.accesses
	if n == 0 {
		return res, nil
	}
	// A lead reaching past the end of the stream never binds: for every
	// i < n, i%lead and i >= lead read the same either way. Clamping it
	// changes no result and sizes bRing by the trace rather than by
	// FragmentFIFO × TexelsPerFragment, which Validate caps only factor
	// by factor.
	lead = min(lead, n)

	// Per-miss issue and release times index by miss ordinal; the ring
	// buffers hold the sliding windows the queue-depth constraints read.
	issue := make([]uint64, len(t.misses))
	release := make([]uint64, len(t.misses))
	bRing := make([]uint64, lead)            // filter finish times, last `lead` accesses
	retireRing := make([]uint64, resDepth+1) // result-FIFO retire times

	var (
		fPrev, bPrev, rPrev uint64 // previous tag, filter, retire times
		channelFree         uint64 // single memory channel busy-until
		fillDone            uint64
		j                   int    // next miss ordinal
		fifoPtr             uint64 // oldest access still in the fragment FIFO
		robPtr, inflPtr     int    // released / completed miss pointers
		maxOccAcc           uint64 // fragment-FIFO high water, in accesses
	)
	for i := uint64(0); i < n; i++ {
		// Tag stage: one access per unit, blocked by fragment-FIFO
		// space — the slot of access i-lead must have drained, and a
		// freed slot is reusable the following unit. The +1 is what
		// makes the collapsed (lead 1) machine exactly the serial
		// blocking cache: access i starts strictly after access i-1
		// completes, so each miss costs the full fill round trip.
		f := fPrev + 1
		if i >= lead {
			if w := bRing[(i-lead)%lead] + 1; w > f {
				f = w
			}
		}
		isMiss := j < len(t.misses) && t.misses[j] == i
		if isMiss {
			// A miss also needs a request-FIFO slot (freed when the
			// channel accepts request j-R) and a reorder-buffer slot
			// (freed when the filter consumes miss j-B).
			if j >= reqDepth {
				if w := issue[j-reqDepth]; w > f {
					f = w
				}
			}
			if j >= robDepth {
				if w := release[j-robDepth]; w > f {
					f = w
				}
			}
		}
		for fifoPtr < i && bRing[fifoPtr%lead] < f {
			fifoPtr++
		}
		if occ := i - fifoPtr + 1; occ > maxOccAcc {
			maxOccAcc = occ
		}
		if isMiss {
			// Fill issue: in order, serialized on channel occupancy.
			is := f
			if channelFree > is {
				is = channelFree
			}
			issue[j] = is
			channelFree = is + occU
			fillDone = is + latU + occU
			for inflPtr < j && issue[inflPtr]+latU+occU <= is {
				inflPtr++
			}
			if in := j - inflPtr + 1; in > res.MaxInFlight {
				res.MaxInFlight = in
			}
			for robPtr < j && release[robPtr] <= f {
				robPtr++
			}
			if ro := j - robPtr + 1; ro > res.MaxReorder {
				res.MaxReorder = ro
			}
		}

		// Filter stage: in-order consume, one access per unit. Hits
		// never wait on memory; a miss waits for its own fill.
		b := bPrev + 1
		if f > b {
			b = f
		}
		if isMiss && fillDone > b {
			b = fillDone
		}
		if i%fragTex == 0 {
			// Fragment start: a result-FIFO slot must be free, i.e.
			// fragment g-1-resDepth has retired.
			if g := i / fragTex; g > resDepth {
				if w := retireRing[(g-1-resDepth)%(resDepth+1)]; w > b {
					b = w
				}
			}
		}
		bRing[i%lead] = b
		if isMiss {
			release[j] = b
			j++
		}

		// Retire stage: the finished fragment leaves the result FIFO at
		// its own filter rate (size texels per fragment slot).
		if (i+1)%fragTex == 0 || i+1 == n {
			size := i%fragTex + 1
			r := b
			if w := rPrev + size; w > r {
				r = w
			}
			retireRing[(i/fragTex)%(resDepth+1)] = r
			rPrev = r
			res.Fragments++
		}
		fPrev, bPrev = f, b
	}

	res.TotalCyc = ceilDiv(rPrev, perCycle)
	res.ComputeCyc = ceilDiv(n, perCycle)
	res.StallCyc = res.TotalCyc - res.ComputeCyc
	res.MaxFragmentFIFO = int(ceilDiv(maxOccAcc, fragTex))

	reg := obs.Default().Sub("arch")
	reg.Counter("simulations").Inc()
	reg.Counter("stall_cycles").Add(res.StallCyc)
	reg.Gauge("in_flight_fills").Set(int64(res.MaxInFlight))
	reg.Gauge("rob_occupancy").Set(int64(res.MaxReorder))
	return res, nil
}

// Simulate replays one texel address stream through the pipeline:
// NewTimeline plus one Timeline.Simulate. Use a shared Timeline when
// sweeping timing parameters over the same (trace, cache) point.
func Simulate(cfg Config, s cache.AddrStream) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	t, err := NewTimeline(cfg.Cache, s)
	if err != nil {
		return Result{}, err
	}
	return t.Simulate(cfg)
}

func ceilDiv(a, b uint64) uint64 { return (a + b - 1) / b }
