// Package perf implements the bandwidth half of the Section 7 machine
// model: a pipelined fragment generator at a fixed clock reading
// multiple texels per cycle from the SRAM texture cache, its peak
// fragment rate, and the memory bandwidth a miss rate demands at that
// rate. What miss latency costs is timed by the cycle model in
// internal/arch.
package perf

// Model holds the machine constants of Section 7.1.
type Model struct {
	// ClockHz is the fragment generator clock (the paper assumes 100 MHz
	// ASIC technology).
	ClockHz float64
	// TexelsPerCycle is the cache read bandwidth in texels (the paper's
	// banked cache reads 4).
	TexelsPerCycle int
	// TexelsPerFragment is the filter cost: 8 for trilinear Mip Mapping.
	TexelsPerFragment int
	// TexelBytes is the texel size (32 bits).
	TexelBytes int
}

// Default returns the paper's machine: 100 MHz, 4 texels/cycle, trilinear
// filtering, 32-bit texels.
func Default() Model {
	return Model{
		ClockHz:           100e6,
		TexelsPerCycle:    4,
		TexelsPerFragment: 8,
		TexelBytes:        4,
	}
}

// PeakFragmentsPerSecond returns the compute-limited fragment rate: the
// paper's 50 million textured fragments per second for the default model.
func (m Model) PeakFragmentsPerSecond() float64 {
	return m.ClockHz * float64(m.TexelsPerCycle) / float64(m.TexelsPerFragment)
}

// BandwidthBytesPerSecond converts a cache miss rate into the DRAM
// bandwidth needed to sustain peak fragment rate with the given line
// size: every miss fills one line.
func (m Model) BandwidthBytesPerSecond(missRate float64, lineBytes int) float64 {
	accessesPerSec := m.PeakFragmentsPerSecond() * float64(m.TexelsPerFragment)
	return missRate * accessesPerSec * float64(lineBytes)
}

// UncachedBandwidthBytesPerSecond returns the requirement of an
// equivalent-performance system with no cache: every texel lookup goes to
// dedicated DRAM (the paper's 1.5 GB/s reference point).
func (m Model) UncachedBandwidthBytesPerSecond() float64 {
	return float64(m.TexelBytes) * float64(m.TexelsPerFragment) * m.PeakFragmentsPerSecond()
}

// BandwidthReduction returns the ratio of the uncached requirement to the
// cached requirement — the paper's headline three-to-fifteen-times
// reduction.
func (m Model) BandwidthReduction(missRate float64, lineBytes int) float64 {
	b := m.BandwidthBytesPerSecond(missRate, lineBytes)
	if b == 0 {
		return 0
	}
	return m.UncachedBandwidthBytesPerSecond() / b
}
