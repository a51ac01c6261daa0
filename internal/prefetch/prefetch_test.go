package prefetch

import (
	"math"
	"testing"

	"texcache/internal/arch"
	"texcache/internal/cache"
)

// fill is the cycles one miss costs when nothing hides it.
const fill = FillLatency + FillOccupancy

var depths = []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// strideTimeline builds the miss timeline of a stream with a
// controllable miss rate: `reuse` accesses to one line before moving to
// the next, so every line misses once, cold.
func strideTimeline(t *testing.T, lines, reuse int) *arch.Timeline {
	t.Helper()
	tr := cache.NewTrace(lines * reuse)
	for l := 0; l < lines; l++ {
		for r := 0; r < reuse; r++ {
			tr.Access(uint64(l)*128 + uint64(r*4%128))
		}
	}
	tl, err := arch.NewTimeline(cache.Config{SizeBytes: 4 << 10, LineBytes: 128, Ways: 2}, tr)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// computeCycles is the zero-miss bound: the raw read rate.
func computeCycles(tl *arch.Timeline) uint64 {
	return (tl.Accesses() + arch.DefaultTexelsPerCycle - 1) / arch.DefaultTexelsPerCycle
}

// utilization is the share of cycles spent reading rather than stalled.
func utilization(tl *arch.Timeline, fifo int) float64 {
	return float64(computeCycles(tl)) / float64(cycles(tl, fifo))
}

func TestNoMissesRunsAtPeak(t *testing.T) {
	tl := strideTimeline(t, 1, 4096) // one line, all hits after the first
	if tl.MissCount() != 1 {
		t.Errorf("misses = %d", tl.MissCount())
	}
	if u := utilization(tl, 0); u < 0.95 {
		t.Errorf("utilization = %v, want ~1", u)
	}
	for _, d := range depths {
		if cyc := cycles(tl, d); cyc > computeCycles(tl)+fill {
			t.Errorf("FIFO %d took %d cycles, more than one fill over the %d-cycle compute bound", d, cyc, computeCycles(tl))
		}
	}
}

// TestZeroFIFOStallsEveryMiss: with no lead, no fill is issued before
// its texel is needed, so every miss stalls for the whole fill.
func TestZeroFIFOStallsEveryMiss(t *testing.T) {
	for _, reuse := range []int{1, 3, 8, 256} {
		tl := strideTimeline(t, 1001, reuse)
		if got, want := cycles(tl, 0), computeCycles(tl)+tl.MissCount()*fill; got != want {
			t.Errorf("reuse %d: FIFO 0 took %d cycles, want compute plus a full fill per miss = %d", reuse, got, want)
		}
	}
	tl := strideTimeline(t, 2000, 8) // one miss per 8 accesses
	if tl.MissCount() != 2000 {
		t.Fatalf("misses = %d, want 2000", tl.MissCount())
	}
	if u := utilization(tl, 0); u > 0.2 {
		t.Errorf("zero-FIFO utilization = %v, want low", u)
	}
}

// TestDualRasterizerFIFOZeroIsBlocking pins the identity the latency
// table rests on: with no lead, the dual rasterizer is exactly arch's
// Blocking pipeline at the same 18+32-cycle fill.
func TestDualRasterizerFIFOZeroIsBlocking(t *testing.T) {
	for _, reuse := range []int{1, 3, 8, 256} {
		tl := strideTimeline(t, 1001, reuse)
		m := arch.Default(tl.CacheConfig(), arch.Blocking)
		m.FillLatency, m.FillOccupancy = FillLatency, FillOccupancy
		res, err := tl.Simulate(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := cycles(tl, 0); got != res.TotalCyc {
			t.Errorf("reuse %d: dual rasterizer at FIFO 0 = %d cycles, blocking = %d", reuse, got, res.TotalCyc)
		}
	}
}

// TestDeeperFIFOHidesLatency: a deeper FIFO never costs cycles, but it
// cannot lift a bandwidth-bound stream off the memory channel.
func TestDeeperFIFOHidesLatency(t *testing.T) {
	for _, reuse := range []int{1, 8, 64, 256} {
		tl := strideTimeline(t, 500, reuse)
		prev := uint64(math.MaxUint64)
		for _, d := range depths {
			cyc := cycles(tl, d)
			if cyc > prev {
				t.Errorf("reuse %d: FIFO %d takes %d cycles, more than the shallower FIFO's %d", reuse, d, cyc, prev)
			}
			prev = cyc
		}
	}
	// One fill per 8 accesses asks the channel for 32 cycles per 2
	// cycles of reads: bandwidth-bound at any depth, as Section 7
	// distinguishes from latency-bound.
	bw := strideTimeline(t, 2000, 8)
	if cyc := cycles(bw, 1024); cyc < 2*computeCycles(bw) {
		t.Errorf("bandwidth-bound stream ran in %d cycles, under twice its %d-cycle compute bound", cyc, computeCycles(bw))
	}
}

func TestDeepFIFOReachesPeakWhenBandwidthSuffices(t *testing.T) {
	// One fill per 256 accesses leaves the channel idle half the time,
	// so a deep FIFO hides everything.
	tl := strideTimeline(t, 500, 256)
	if cyc, bound := cycles(tl, 128), computeCycles(tl); float64(cyc) > 1.01*float64(bound) {
		t.Errorf("FIFO 128 took %d cycles, more than 1%% over its %d-cycle compute bound", cyc, bound)
	}
	if u := utilization(tl, 0); u > 0.6 {
		t.Errorf("shallow utilization = %v unexpectedly high", u)
	}
}

func TestFragmentsPerSecond(t *testing.T) {
	tl := strideTimeline(t, 100, 256)
	// ~full utilization: 4 texels/cycle / 8 texels/fragment * 100MHz =
	// 50M/s, which no lead can beat.
	if fps := FragmentsPerSecond(tl, 128, 100e6); fps < 45e6 || fps > 50e6 {
		t.Errorf("fragments/s = %v, want ~50e6", fps)
	}
	empty := strideTimeline(t, 0, 0)
	if fps := FragmentsPerSecond(empty, 128, 100e6); fps != 0 {
		t.Errorf("empty timeline reads %v fragments/s, want 0", fps)
	}
}

// TestCycleAccounting: the count is the compute bound plus the stall,
// so it never falls below the compute bound and never rises above
// paying every fill in full.
func TestCycleAccounting(t *testing.T) {
	tl := strideTimeline(t, 100, 8)
	if tl.Accesses() != 800 {
		t.Errorf("accesses = %d, want 800", tl.Accesses())
	}
	lo, hi := computeCycles(tl), computeCycles(tl)+tl.MissCount()*fill
	for _, d := range depths {
		if cyc := cycles(tl, d); cyc < lo || cyc > hi {
			t.Errorf("FIFO %d took %d cycles, outside [%d, %d]", d, cyc, lo, hi)
		}
	}
}
