// Hardware cost of a cache organization, the second axis of the
// design-space search: where cost.go accounts the paper's Table 2.1
// computational cost of generating fragments, this file accounts the
// silicon a cache configuration itself would spend. The model is
// deliberately simple — storage bits plus comparator bits, the classic
// register-bit-equivalent (RBE) style of cache cost models — but it is
// deterministic and strictly monotone in both capacity and
// associativity: a bigger or more associative cache is always costlier,
// so the grid's miss-rate/cost frontier (internal/shard) trades the two
// axes against each other rather than one hiding the other.
package cost

import (
	"math/bits"

	"texcache/internal/cache"
)

// addressBits is the simulated texture address width: layouts emit
// byte addresses into a 32-bit simulated memory.
const addressBits = 32

// HardwareCost breaks the silicon cost of one cache configuration into
// its storage and logic components, all in bit equivalents.
type HardwareCost struct {
	// DataBits is the data array: 8 bits per byte of capacity.
	DataBits int64
	// TagBits is the tag array: per line, the address tag plus a valid
	// bit.
	TagBits int64
	// StateBits is the replacement state: per-way LRU rank bits, or a
	// per-set pointer/counter for FIFO and random replacement.
	StateBits int64
	// CompareBits is the tag-match logic: one comparator per way, one
	// bit equivalent per tag bit.
	CompareBits int64
}

// Total is the configuration's scalar cost, the y-axis the Pareto
// frontier trades against miss rate.
func (h HardwareCost) Total() int64 {
	return h.DataBits + h.TagBits + h.StateBits + h.CompareBits
}

// log2 returns floor(log2(n)) for power-of-two n (the only shapes a
// validated cache.Config produces).
func log2(n int) int { return bits.Len(uint(n)) - 1 }

// ceilLog2 returns ceil(log2(n)), the bits needed to count n states.
func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// ConfigCost returns the hardware cost of a validated cache
// configuration. Fully associative organizations (Ways 0) are costed as
// a single set of NumLines ways — the honest price of their comparator
// fan-out. The model is monotone: at a fixed line size, growing either
// SizeBytes or Ways strictly increases Total.
func ConfigCost(c cache.Config) HardwareCost {
	lines := c.NumLines()
	sets := c.NumSets()
	ways := c.Ways
	if ways == 0 {
		ways = lines
	}
	tag := addressBits - log2(sets) - log2(c.LineBytes)

	var state int64
	switch c.Policy {
	case cache.LRU:
		// A rank per way, per set.
		state = int64(sets) * int64(ways) * int64(ceilLog2(ways))
	default:
		// FIFO keeps a fill pointer per set; random a counter of the
		// same width.
		state = int64(sets) * int64(ceilLog2(ways))
	}
	return HardwareCost{
		DataBits:    int64(c.SizeBytes) * 8,
		TagBits:     int64(lines) * int64(tag+1),
		StateBits:   state,
		CompareBits: int64(ways) * int64(tag),
	}
}
