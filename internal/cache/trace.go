package cache

import (
	"time"

	"texcache/internal/obs"
)

// AddrStream is a read-only texel address stream consumable in ordered
// blocks. *Trace is the fully materialized implementation; compact
// delta-encoded traces (internal/trace) stream their blocks out of the
// encoded form without ever materializing the whole []uint64. Every
// replay entry point (ReplayStream, ReplayStreamConcurrent and the
// grouped sweeps) accepts either.
type AddrStream interface {
	// Len returns the number of addresses in the stream.
	Len() int
	// Cursor returns a fresh iterator positioned at the start of the
	// stream. Cursors are independent: each walks the whole stream, so
	// concurrent consumers each take their own.
	Cursor() Cursor
}

// Cursor iterates an address stream block by block, in order.
type Cursor interface {
	// Next returns the next block of addresses, or nil at end of
	// stream. The returned slice is only valid until the following
	// Next call: decoding cursors reuse their block buffer.
	Next() []uint64
}

// BulkSink is a Sink that can absorb a whole run of addresses at once.
// The tile-parallel merge uses it to move per-tile spans into the frame
// sink without a per-address interface call.
type BulkSink interface {
	Sink
	// AccessBulk appends every address of the run, exactly as len(addrs)
	// Access calls would.
	AccessBulk(addrs []uint64)
}

// batchSink is the replay loops' fast-path contract: a sink that can
// consume a whole ordered block per call, bit-identically to per-address
// Access. Cache (via Sink), StackDist and the grouped simulator satisfy
// it, so every replay entry point pays one interface call per block
// instead of one per address.
type batchSink interface {
	AccessBatch(addrs []uint64)
}

// Trace records a texel address stream in memory so one rendering pass can
// be replayed through many cache configurations — the address stream
// depends on the scene, texture layout and rasterization order but never
// on the cache parameters, so re-rendering per configuration would be
// wasted work.
type Trace struct {
	Addrs []uint64
}

// NewTrace returns a Trace with capacity for sizeHint addresses.
func NewTrace(sizeHint int) *Trace {
	return &Trace{Addrs: make([]uint64, 0, sizeHint)}
}

// traceGrowMin is the smallest capacity Access grows an exhausted trace
// to: one growth step covers the short traces tests record, while real
// renders immediately enter the doubling regime.
const traceGrowMin = 1024

// Access appends one address; Trace satisfies Sink.
//
// Growth doubles explicitly rather than relying on append: append's
// growth factor decays to ~1.25x for large slices, and a full-resolution
// frame records hundreds of millions of addresses, where doubling cuts
// both the number of reallocations and the total bytes copied.
func (t *Trace) Access(addr uint64) {
	if len(t.Addrs) == cap(t.Addrs) {
		t.Grow(1)
	}
	t.Addrs = append(t.Addrs, addr)
}

// Grow ensures capacity for at least n more addresses, at minimum
// doubling the current capacity so repeated growth stays amortized O(1)
// with a bounded copy volume. Bulk producers (the tile merge, trace
// deserialization) call it once with their known size.
func (t *Trace) Grow(n int) {
	need := len(t.Addrs) + n
	if need <= cap(t.Addrs) {
		return
	}
	newCap := 2 * cap(t.Addrs)
	if newCap < traceGrowMin {
		newCap = traceGrowMin
	}
	if newCap < need {
		newCap = need
	}
	a := make([]uint64, len(t.Addrs), newCap)
	copy(a, t.Addrs)
	t.Addrs = a
}

// AccessBulk appends a whole run of addresses; Trace satisfies BulkSink.
// Grow doubles, keeping large-frame merges off append's decaying growth
// factor.
func (t *Trace) AccessBulk(addrs []uint64) {
	t.Grow(len(addrs))
	t.Addrs = append(t.Addrs, addrs...)
}

// Len returns the number of recorded accesses.
func (t *Trace) Len() int { return len(t.Addrs) }

// Cursor returns an iterator over the materialized addresses; the blocks
// are views into Addrs, so iteration copies nothing.
func (t *Trace) Cursor() Cursor { return &traceCursor{addrs: t.Addrs} }

// replayChunkLen is the block length a *Trace cursor hands out: large
// enough that the per-block dispatch vanishes against the ~ns cost of
// one Access, small enough that a concurrent pass, which checks for
// cancellation between blocks, stays prompt.
const replayChunkLen = 1 << 14

// traceCursor hands out replayChunkLen-sized views of a trace.
type traceCursor struct {
	addrs []uint64
	pos   int
}

func (c *traceCursor) Next() []uint64 {
	if c.pos >= len(c.addrs) {
		return nil
	}
	hi := min(c.pos+replayChunkLen, len(c.addrs))
	b := c.addrs[c.pos:hi]
	c.pos = hi
	return b
}

// flushReplay records one finished replay pass: the address volume (the
// numerator of addresses/sec) and the wall time under the given timer.
func flushReplay(reg *obs.Registry, start time.Time, addrs uint64, timer string) {
	rep := reg.Sub("replay")
	rep.Counter("addresses").Add(addrs)
	rep.Timer(timer).ObserveSince(start)
}

// SimulateConfigs replays the trace through a fresh classifying cache per
// configuration, one configuration after another, and returns the
// resulting statistics, index-aligned with cfgs. It is the serial oracle
// the grouped sweeps are checked against; sweeps that must be fast use
// SimulateConfigsGroupedStream. It feeds each cache one address at a
// time through the scalar Access, so the oracle never runs the batch
// kernel that a sweep's own caches run.
func (t *Trace) SimulateConfigs(cfgs []Config) []Stats {
	reg := obs.Default()
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	out := make([]Stats, len(cfgs))
	for i, cfg := range cfgs {
		c := NewClassifying(cfg)
		for _, a := range t.Addrs {
			c.Access(a)
		}
		out[i] = c.Stats()
	}
	if reg != nil {
		flushReplay(reg, start, uint64(t.Len())*uint64(len(cfgs)), "pass")
	}
	return out
}
