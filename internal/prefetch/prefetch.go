// Package prefetch times the latency-hiding scheme of Section 7.1.1:
// the triangles are rasterized twice, with the first pass computing
// texel addresses and prefetching missing lines, and the second pass — a
// FIFO of fragments behind — performing the actual texturing. A miss is
// harmless when the FIFO gives the memory system enough lead time to
// finish the fill before the consuming fragment arrives.
//
// The model runs over an arch.Timeline, the miss positions of one cache
// replay: hits never wait, so only misses enter the recurrence. The
// address rasterizer keeps a fixed lead, full from the first access,
// where arch's Prefetch tag stage builds its lead up while the filter
// stalls, so the two models part at FIFO > 0. At FIFO 0 this is exactly
// arch's Blocking pipeline at the same fill.
package prefetch

import "texcache/internal/arch"

// FillLatency and FillOccupancy split the Section 7.1.1 fill, "roughly
// fifty 10ns cycles for a 128 byte cache line", into cycles of DRAM
// setup before the line starts arriving and cycles the line transfer
// occupies the memory channel; back-to-back fills serialize on it.
const (
	FillLatency   = 18
	FillOccupancy = 32
)

// FragmentsPerSecond returns the sustained rate of the dual-rasterizer
// design at clockHz, for arch.DefaultTexelsPerFragment-texel fragments,
// with the address rasterizer fifo fragments ahead. An empty timeline
// reads 0.
func FragmentsPerSecond(tl *arch.Timeline, fifo int, clockHz float64) float64 {
	cyc := cycles(tl, fifo)
	if cyc == 0 {
		return 0
	}
	fragments := float64(tl.Accesses()) / arch.DefaultTexelsPerFragment
	return fragments / (float64(cyc) / clockHz)
}

// cycles returns the compute cycles plus the stall cycles of the
// texturing rasterizer. The address rasterizer issues each miss's fill
// as it passes, a fixed lead ahead; fills serialize on one memory
// channel; the texturing rasterizer stalls on a texel whose fill has not
// returned, which delays both. Times are in access units,
// arch.DefaultTexelsPerCycle to a cycle.
func cycles(tl *arch.Timeline, fifo int) uint64 {
	const perCycle = arch.DefaultTexelsPerCycle
	lead := uint64(fifo * arch.DefaultTexelsPerFragment)
	latency, occupancy := uint64(FillLatency*perCycle), uint64(FillOccupancy*perCycle)
	var channelFree, stall uint64
	for _, idx := range tl.Misses() {
		issue := stall
		if idx > lead {
			issue += idx - lead
		}
		start := max(issue, channelFree)
		channelFree = start + occupancy
		if done, use := start+latency+occupancy, idx+stall; done > use {
			stall += done - use
		}
	}
	return (tl.Accesses()+perCycle-1)/perCycle + (stall+perCycle-1)/perCycle
}
