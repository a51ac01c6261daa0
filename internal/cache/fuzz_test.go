package cache

import (
	"context"
	"math/rand"
	"testing"
)

// FuzzSimulateConfigsGrouped differentially fuzzes the grouped sweep
// against per-configuration serial simulation: any (seed, size, line,
// ways, policy) drawn by the fuzzer that validates, plus the extra LRU
// configurations that lines asks for, must produce bit-identical Stats
// both ways. lines holds two bits per line size, 4B to 256B: how many
// extra LRU configurations that line size gets, with sizes and ways
// drawn from the seed. A line size left with one LRU configuration
// replays it on its own cache, and one with several shares a grouped
// walk, so the seeds mix both routes in one sweep. The first seeds pin
// the paper's evaluation points: the Table 6.x / 7.1 organizations (4KB
// 2-way, 32KB 2-way, 128KB direct-mapped) across 32/64/128-byte lines.
func FuzzSimulateConfigsGrouped(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(2), uint8(0), uint16(0)) // 4KB  2-way   32B
	f.Add(uint64(2), uint8(2), uint8(4), uint8(2), uint8(0), uint16(0)) // 4KB  2-way   64B
	f.Add(uint64(3), uint8(5), uint8(5), uint8(2), uint8(0), uint16(0)) // 32KB 2-way  128B
	f.Add(uint64(4), uint8(7), uint8(5), uint8(1), uint8(0), uint16(0)) // 128KB direct 128B
	f.Add(uint64(5), uint8(4), uint8(4), uint8(0), uint8(0), uint16(0)) // 16KB FA      64B
	f.Add(uint64(6), uint8(3), uint8(3), uint8(4), uint8(1), uint16(0)) // 8KB 4-way FIFO (own cache)
	f.Add(uint64(7), uint8(3), uint8(5), uint8(2), uint8(2), uint16(0)) // 8KB 2-way random (own cache)
	// 32KB 2-way 128B alone at its line size, three more at 64B: one
	// own cache beside a grouped walk, as cold-sweep's pair and a curve
	// sweep would meet in one request.
	f.Add(uint64(8), uint8(5), uint8(5), uint8(2), uint8(0), uint16(3<<(2*4)))
	// 16KB direct 64B joined by one more 64B config (a walk of two),
	// one alone at 32B and two at 256B.
	f.Add(uint64(9), uint8(4), uint8(4), uint8(1), uint8(0), uint16(1<<(2*4)|1<<(2*3)|2<<(2*6)))
	// FIFO at 32B beside one LRU there (its own cache) and a walk of
	// three at 128B.
	f.Add(uint64(10), uint8(3), uint8(3), uint8(4), uint8(1), uint16(1<<(2*3)|3<<(2*5)))

	f.Fuzz(func(t *testing.T, seed uint64, sizeLog, lineLog, ways, policy uint8, lines uint16) {
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
		cfgs := []Config{cfg}
		for l := 0; l < 7; l++ {
			for n := int(lines>>(2*l)) & 3; n > 0; n-- {
				extra := Config{
					SizeBytes: 1 << (10 + rng.Intn(8)),
					LineBytes: 4 << l,
					Ways:      []int{0, 1, 2, 4, 8}[rng.Intn(5)],
				}
				if extra.Validate() == nil {
					cfgs = append(cfgs, extra)
				}
			}
		}
		want := tr.SimulateConfigs(cfgs)
		got, err := SimulateConfigsGroupedStream(context.Background(), tr, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if got[i] != want[i] {
				t.Fatalf("%+v in %v: grouped %+v != serial %+v", cfgs[i], cfgs, got[i], want[i])
			}
		}
	})
}

// FuzzStackDist differentially fuzzes the stack-distance kernel: for a
// random stream, line size (4B..256B) and batch split, the profile fed
// through AccessBatch must equal the one fed address by address, every
// first access must be a cold miss, and MissesAt(k) must equal the misses
// of a fully-associative LRU cache of k lines. Long streams over many
// lines cross compactions and index growths.
func FuzzStackDist(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint16(2048), uint16(64), uint8(0))     // 32B lines, short stream
	f.Add(uint64(2), uint8(0), uint16(60000), uint16(300), uint8(200)) // 4B lines, wide and long: compacts
	f.Add(uint64(3), uint8(6), uint16(9000), uint16(1), uint8(30))     // 256B lines, 1-addr batches
	f.Add(uint64(4), uint8(5), uint16(30000), uint16(5000), uint8(255))

	f.Fuzz(func(t *testing.T, seed uint64, lineLog uint8, n, maxBatch uint16, spread uint8) {
		lineBytes := 4 << (lineLog % 7)
		rng := rand.New(rand.NewSource(int64(seed)))
		// spread sets how many distinct lines the stream wanders over;
		// runs on one address exercise the repeat fast path.
		span := (int(spread) + 1) * 256 * lineBytes
		addrs := make([]uint64, 0, int(n))
		for len(addrs) < int(n) {
			a := uint64(rng.Intn(span))
			run := 1
			switch rng.Intn(8) {
			case 0:
				a = uint64(rng.Intn(64 * lineBytes)) // a hot set
			case 1:
				run += rng.Intn(16)
			}
			for ; run > 0 && len(addrs) < int(n); run-- {
				addrs = append(addrs, a)
			}
		}

		scalar := NewStackDist(lineBytes)
		for _, a := range addrs {
			scalar.Access(a)
		}
		batch := NewStackDist(lineBytes)
		for lo := 0; lo < len(addrs); {
			k := min(rng.Intn(int(maxBatch)+1), len(addrs)-lo)
			batch.AccessBatch(addrs[lo : lo+k])
			lo += k
		}
		assertProfileEqual(t, "batch", profileOf(scalar), profileOf(batch))
		if batch.ColdMisses() != uint64(batch.DistinctLines()) {
			t.Fatalf("%d cold misses but %d distinct lines", batch.ColdMisses(), batch.DistinctLines())
		}
		for _, lines := range []int{1, 4, 32, 256} {
			c := New(Config{SizeBytes: lines * lineBytes, LineBytes: lineBytes, Ways: 0})
			for _, a := range addrs {
				c.Access(a)
			}
			if got, want := batch.MissesAt(lines), c.Stats().Misses; got != want {
				t.Fatalf("%dB lines, %d-line cache: MissesAt = %d, FA-LRU = %d", lineBytes, lines, got, want)
			}
		}
	})
}
