package cost

import (
	"testing"

	"texcache/internal/cache"
)

// TestConfigCostPinned pins the cost model on the paper's design point
// and a few neighbors: the numbers are arithmetic, so a change here is a
// deliberate model change, not drift.
func TestConfigCostPinned(t *testing.T) {
	tests := []struct {
		cfg  cache.Config
		want HardwareCost
	}{
		{
			// The paper point: 32KB 2-way 128B lines. 256 lines, 128
			// sets, tag = 32-7-7 = 18 bits.
			cfg:  cache.Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2},
			want: HardwareCost{DataBits: 262144, TagBits: 256 * 19, StateBits: 128 * 2 * 1, CompareBits: 2 * 18},
		},
		{
			// Direct-mapped has no replacement state and one comparator.
			// 16KB 1-way 64B: 256 lines = 256 sets, tag = 32-8-6 = 18.
			cfg:  cache.Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 1},
			want: HardwareCost{DataBits: 131072, TagBits: 256 * 19, StateBits: 0, CompareBits: 18},
		},
		{
			// Fully associative pays a comparator per line. 2KB FA 128B:
			// 16 lines, 1 set, tag = 32-0-7 = 25.
			cfg:  cache.Config{SizeBytes: 2 << 10, LineBytes: 128, Ways: 0},
			want: HardwareCost{DataBits: 16384, TagBits: 16 * 26, StateBits: 16 * 4, CompareBits: 16 * 25},
		},
		{
			// FIFO keeps a per-set pointer instead of per-way ranks.
			// 8KB 4-way 64B FIFO: 128 lines, 32 sets, tag = 32-5-6 = 21.
			cfg:  cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4, Policy: cache.FIFO},
			want: HardwareCost{DataBits: 65536, TagBits: 128 * 22, StateBits: 32 * 2, CompareBits: 4 * 21},
		},
	}
	for _, tt := range tests {
		if err := tt.cfg.Validate(); err != nil {
			t.Fatalf("%v: %v", tt.cfg, err)
		}
		got := ConfigCost(tt.cfg)
		if got != tt.want {
			t.Errorf("ConfigCost(%v) = %+v, want %+v", tt.cfg, got, tt.want)
		}
		if got.Total() != got.DataBits+got.TagBits+got.StateBits+got.CompareBits {
			t.Errorf("Total() inconsistent for %v", tt.cfg)
		}
	}
}

// TestConfigCostMonotone checks the model's monotonicity: at a fixed
// line size, cost strictly increases with capacity and with
// associativity.
func TestConfigCostMonotone(t *testing.T) {
	for _, line := range []int{64, 128} {
		for _, ways := range []int{1, 2, 4} {
			prev := int64(-1)
			for size := 4 << 10; size <= 256<<10; size <<= 1 {
				c := cache.Config{SizeBytes: size, LineBytes: line, Ways: ways}
				if err := c.Validate(); err != nil {
					t.Fatalf("%v: %v", c, err)
				}
				total := ConfigCost(c).Total()
				if total <= prev {
					t.Errorf("cost not monotone in size: %v total %d <= %d", c, total, prev)
				}
				prev = total
			}
		}
		// More ways at fixed geometry.
		prev := int64(-1)
		for _, ways := range []int{1, 2, 4, 8} {
			c := cache.Config{SizeBytes: 32 << 10, LineBytes: line, Ways: ways}
			total := ConfigCost(c).Total()
			if total <= prev {
				t.Errorf("cost not monotone in ways: %v total %d <= %d", c, total, prev)
			}
			prev = total
		}
	}
	// FA is the costliest organization at its size and line.
	sa := ConfigCost(cache.Config{SizeBytes: 16 << 10, LineBytes: 128, Ways: 8}).Total()
	fa := ConfigCost(cache.Config{SizeBytes: 16 << 10, LineBytes: 128, Ways: 0}).Total()
	if fa <= sa {
		t.Errorf("fully associative (%d) should cost more than 8-way (%d)", fa, sa)
	}
}
