package cache

import (
	"context"
	"math/rand"
	"testing"
)

// FuzzSimulateConfigsGrouped differentially fuzzes the grouped
// single-pass simulator against per-configuration serial simulation: any
// (seed, size, line, ways, policy) drawn by the fuzzer that validates
// must produce bit-identical Stats both ways. The seed corpus pins the
// paper's evaluation points: the Table 6.x / 7.1 organizations (4KB
// 2-way, 32KB 2-way, 128KB direct-mapped) across 32/64/128-byte lines.
func FuzzSimulateConfigsGrouped(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(2), uint8(0)) // 4KB  2-way   32B
	f.Add(uint64(2), uint8(2), uint8(4), uint8(2), uint8(0)) // 4KB  2-way   64B
	f.Add(uint64(3), uint8(5), uint8(5), uint8(2), uint8(0)) // 32KB 2-way  128B
	f.Add(uint64(4), uint8(7), uint8(5), uint8(1), uint8(0)) // 128KB direct 128B
	f.Add(uint64(5), uint8(4), uint8(4), uint8(0), uint8(0)) // 16KB FA      64B
	f.Add(uint64(6), uint8(3), uint8(3), uint8(4), uint8(1)) // 8KB 4-way FIFO (fallback)
	f.Add(uint64(7), uint8(3), uint8(5), uint8(2), uint8(2)) // 8KB 2-way random (fallback)

	f.Fuzz(func(t *testing.T, seed uint64, sizeLog, lineLog, ways, policy uint8) {
		cfg := Config{
			SizeBytes: 1 << (10 + sizeLog%8), // 1KB .. 128KB
			LineBytes: 1 << (2 + lineLog%7),  // 4B .. 256B
			Ways:      int(ways % 9),
			Policy:    Replacement(policy % 3),
		}
		if cfg.Validate() != nil {
			return // invalid draws are rejected identically by both paths
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		tr := NewTrace(2048)
		base := uint64(0)
		for i := 0; i < 2048; i++ {
			switch r := rng.Float64(); {
			case r < 0.5:
				tr.Access(uint64(rng.Intn(2 << 10)))
			case r < 0.9:
				tr.Access(base + uint64(rng.Intn(32<<10)))
			default:
				base += uint64(rng.Intn(1 << 18))
				tr.Access(base)
			}
		}
		want := tr.SimulateConfigs([]Config{cfg})
		got, err := SimulateConfigsGroupedStream(context.Background(), tr, []Config{cfg})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want[0] {
			t.Fatalf("%+v: grouped %+v != serial %+v", cfg, got[0], want[0])
		}
	})
}
