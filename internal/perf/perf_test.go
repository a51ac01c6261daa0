package perf

import (
	"math"
	"testing"
)

func TestPeakFragmentRate(t *testing.T) {
	m := Default()
	// The paper: 100 MHz * 4 texels/cycle / 8 texels/fragment = 50M/s.
	if got := m.PeakFragmentsPerSecond(); got != 50e6 {
		t.Errorf("peak = %v, want 50e6", got)
	}
	// One texel per cycle would limit to 12.5M (Section 7.1.1).
	m.TexelsPerCycle = 1
	if got := m.PeakFragmentsPerSecond(); got != 12.5e6 {
		t.Errorf("1 texel/cycle peak = %v, want 12.5e6", got)
	}
}

func TestUncachedBandwidth(t *testing.T) {
	// 4 bytes/texel * 8 texels/fragment * 50M fragments/s = 1.6 GB/s
	// (the paper rounds to 1.5 GB/s).
	if got := Default().UncachedBandwidthBytesPerSecond(); got != 1.6e9 {
		t.Errorf("uncached = %v, want 1.6e9", got)
	}
}

func TestBandwidthScalesWithMissRateAndLine(t *testing.T) {
	m := Default()
	b1 := m.BandwidthBytesPerSecond(0.01, 32)
	// 1% of 400M accesses/s * 32B = 128 MB/s.
	if math.Abs(b1-128e6) > 1 {
		t.Errorf("bandwidth = %v, want 128e6", b1)
	}
	if b2 := m.BandwidthBytesPerSecond(0.02, 32); math.Abs(b2-2*b1) > 1 {
		t.Error("bandwidth not linear in miss rate")
	}
	if b3 := m.BandwidthBytesPerSecond(0.01, 64); math.Abs(b3-2*b1) > 1 {
		t.Error("bandwidth not linear in line size")
	}
}

func TestBandwidthReductionReproducesTable71(t *testing.T) {
	m := Default()
	// Table 7.1 pairs (miss rate in parentheses -> MB/s) from the 32KB
	// column: Flight 128B 0.87% -> 425 MB/s; Town 32B 0.81% -> 99 MB/s.
	flight := m.BandwidthBytesPerSecond(0.0087, 128)
	if math.Abs(flight-445e6) > 10e6 {
		t.Errorf("flight bandwidth = %v MB/s, want ~425-445", flight/1e6)
	}
	town := m.BandwidthBytesPerSecond(0.0081, 32)
	if math.Abs(town-103e6) > 6e6 {
		t.Errorf("town bandwidth = %v MB/s, want ~99-104", town/1e6)
	}
	// The paper's headline: 32KB-cache bandwidths of 100-450 MB/s are a
	// 3x to 15x reduction from the uncached 1.5 GB/s.
	if r := m.BandwidthReduction(0.0087, 128); r < 3 || r > 4.5 {
		t.Errorf("flight reduction = %v, want ~3.5x", r)
	}
	if r := m.BandwidthReduction(0.0081, 32); r < 13 || r > 17 {
		t.Errorf("town reduction = %v, want ~15x", r)
	}
	if m.BandwidthReduction(0, 32) != 0 {
		t.Error("zero miss rate should report 0 (undefined) reduction")
	}
}
