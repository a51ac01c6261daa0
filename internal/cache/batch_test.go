package cache

import (
	"math/rand"
	"testing"
)

// Differential tests for the batch replay kernels: AccessBatch on every
// sink must be observationally equivalent to a loop of Access calls —
// same hit/miss decisions, same statistics, same final cache state, same
// observer callback sequence — for every configuration, including the
// ones that route through the scalar fallback (fully-associative,
// classifying, miss-observed, non-LRU).

// feedBatches replays addrs through AccessBatch in randomly sized blocks
// (including empty and single-address blocks) and returns the total hit
// count the batch calls reported.
func feedBatches(rng *rand.Rand, c *Cache, addrs []uint64) int {
	hits := 0
	for lo := 0; lo < len(addrs); {
		n := rng.Intn(257)
		if lo+n > len(addrs) {
			n = len(addrs) - lo
		}
		hits += c.AccessBatch(addrs[lo : lo+n])
		lo += n
	}
	hits += c.AccessBatch(nil) // empty batch is a no-op
	return hits
}

// assertCacheEqual fails unless the two caches hold identical
// statistics (the 3C split included), line state and recency order:
// tags, stamps and the LRU clock, the fully-associative recency list,
// the 3C shadow's recency list and the set of lines ever loaded.
func assertCacheEqual(t *testing.T, label string, want, got *Cache) {
	t.Helper()
	if want.Stats() != got.Stats() {
		t.Fatalf("%s: stats diverge: scalar %+v batch %+v", label, want.Stats(), got.Stats())
	}
	if want.clock != got.clock {
		t.Fatalf("%s: clock diverges: scalar %d batch %d", label, want.clock, got.clock)
	}
	for i := range want.tags {
		if want.tags[i] != got.tags[i] {
			t.Fatalf("%s: tags[%d] diverge: scalar %#x batch %#x", label, i, want.tags[i], got.tags[i])
		}
		if want.stamps[i] != got.stamps[i] {
			t.Fatalf("%s: stamps[%d] diverge: scalar %d batch %d", label, i, want.stamps[i], got.stamps[i])
		}
	}
	assertRecencyEqual(t, label+" fully-associative", want.full, got.full)
	assertRecencyEqual(t, label+" shadow", want.shadow, got.shadow)
	if len(want.everLoaded) != len(got.everLoaded) {
		t.Fatalf("%s: lines ever loaded diverge: scalar %d batch %d", label, len(want.everLoaded), len(got.everLoaded))
	}
}

// assertRecencyEqual compares two fully-associative LRU lists from the
// most recent entry down; both may be nil.
func assertRecencyEqual(t *testing.T, label string, want, got *falru) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: one cache has the list and the other not", label)
	}
	if want == nil {
		return
	}
	w, g := want.head, got.head
	for depth := 0; w != nilNode || g != nilNode; depth++ {
		if w == nilNode || g == nilNode || want.nodes[w].addr != got.nodes[g].addr {
			t.Fatalf("%s: recency order diverges at depth %d", label, depth)
		}
		w, g = want.nodes[w].next, got.nodes[g].next
	}
}

// TestAccessBatchMatchesScalar is the core property: over randomized
// configurations (direct-mapped through fully-associative, all three
// replacement policies, classifying on and off) and a structured address
// stream, batch replay must report the same hit count and leave the
// cache in the same state as per-address replay.
func TestAccessBatchMatchesScalar(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		tr := diffTrace(seed, 20000)
		for _, cfg := range randomConfigs(rng, 16) {
			for _, classify := range []bool{false, true} {
				mk := TryNew
				if classify {
					mk = TryNewClassifying
				}
				scalar, err := mk(cfg)
				if err != nil {
					t.Fatal(err)
				}
				batch, _ := mk(cfg)

				wantHits := 0
				for _, a := range tr.Addrs {
					if scalar.Access(a) {
						wantHits++
					}
				}
				gotHits := feedBatches(rng, batch, tr.Addrs)

				label := cfg.String()
				if classify {
					label += " classifying"
				}
				if wantHits != gotHits {
					t.Fatalf("%s: hit count diverges: scalar %d batch %d", label, wantHits, gotHits)
				}
				assertCacheEqual(t, label, scalar, batch)
			}
		}
	}
}

// TestAccessBatchEvictionOrder pins the batch kernel's LRU victim choice
// on a hand-built conflict pattern: three lines mapping to one two-way
// set must evict in recency order, identically on both paths.
func TestAccessBatchEvictionOrder(t *testing.T) {
	// 2 sets x 2 ways x 32B lines; A, B, C all map to set 0.
	cfg := Config{SizeBytes: 128, LineBytes: 32, Ways: 2}
	a, b, c := uint64(0), uint64(128), uint64(256)

	scalar := New(cfg)
	batch := New(cfg)

	seq := []uint64{a, b, a, c, b} // c evicts b (LRU), then b evicts a
	for _, addr := range seq {
		scalar.Access(addr)
	}
	batch.AccessBatch(seq)

	assertCacheEqual(t, cfg.String(), scalar, batch)
	for _, probe := range []struct {
		addr uint64
		want bool
	}{{a, false}, {b, true}, {c, true}} {
		if got := batch.Contains(probe.addr); got != probe.want {
			t.Errorf("after batch, Contains(%#x) = %v, want %v", probe.addr, got, probe.want)
		}
	}
}

// TestAccessBatchMixedWithScalar interleaves Access and AccessBatch
// calls on one cache against a purely scalar twin: the batch kernel's
// deferred clock and statistics write-back, and its repeat state, must
// leave the cache ready for scalar accesses at any boundary. Each run
// opens with a batch that ends on line x, scalar accesses that evict x,
// and a batch that starts on x again, which must miss.
func TestAccessBatchMixedWithScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := diffTrace(7, 10000)
	for _, cfg := range []Config{
		{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4},
		{SizeBytes: 512, LineBytes: 64, Ways: 1},
		{SizeBytes: 1 << 10, LineBytes: 64, Ways: 0},
	} {
		for _, mk := range []func(Config) *Cache{New, NewClassifying} {
			scalar, mixed := mk(cfg), mk(cfg)
			x := uint64(1 << 20)
			mixed.AccessBatch([]uint64{x})
			scalar.Access(x)
			for k := 1; k <= cfg.NumLines(); k++ {
				evict := x + uint64(k*cfg.SizeBytes)
				mixed.Access(evict)
				scalar.Access(evict)
			}
			if mixed.AccessBatch([]uint64{x}) != 0 {
				t.Fatalf("%v: a batch counted evicted line %#x as a hit", cfg, x)
			}
			scalar.Access(x)
			for _, a := range tr.Addrs {
				scalar.Access(a)
			}
			for lo := 0; lo < len(tr.Addrs); {
				if rng.Intn(2) == 0 {
					mixed.Access(tr.Addrs[lo])
					lo++
					continue
				}
				n := min(rng.Intn(129), len(tr.Addrs)-lo)
				mixed.AccessBatch(tr.Addrs[lo : lo+n])
				lo += n
			}
			assertCacheEqual(t, cfg.String(), scalar, mixed)
		}
	}
}

// TestAccessBatchMissObserver verifies the miss-observer callback fires
// in the same order with the same line addresses under batch replay (the
// observer forces the scalar fallback; the contract still holds).
func TestAccessBatchMissObserver(t *testing.T) {
	tr := diffTrace(11, 5000)
	cfg := Config{SizeBytes: 4 << 10, LineBytes: 32, Ways: 2}

	var wantMisses, gotMisses []uint64
	scalar := New(cfg)
	scalar.SetMissObserver(func(la uint64) { wantMisses = append(wantMisses, la) })
	batch := New(cfg)
	batch.SetMissObserver(func(la uint64) { gotMisses = append(gotMisses, la) })

	for _, a := range tr.Addrs {
		scalar.Access(a)
	}
	batch.AccessBatch(tr.Addrs)

	if len(wantMisses) != len(gotMisses) {
		t.Fatalf("miss sequence length diverges: scalar %d batch %d", len(wantMisses), len(gotMisses))
	}
	for i := range wantMisses {
		if wantMisses[i] != gotMisses[i] {
			t.Fatalf("miss %d diverges: scalar %#x batch %#x", i, wantMisses[i], gotMisses[i])
		}
	}
	assertCacheEqual(t, cfg.String(), scalar, batch)
}

// assertStackDistEqual compares everything two profiles answer: the
// distance histogram, cold and access counts and distinct lines.
func assertStackDistEqual(t *testing.T, label string, want, got *StackDist) {
	t.Helper()
	assertProfileEqual(t, label, profileOf(want), profileOf(got))
}

// TestStackDistBatchMatchesScalar checks the profiler's batch kernel
// reproduces the scalar profile exactly across line sizes and batch
// boundaries.
func TestStackDistBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := diffTrace(5, 30000)
	for _, line := range []int{4, 32, 64, 256} {
		scalar := NewStackDist(line)
		batch := NewStackDist(line)
		for _, a := range tr.Addrs {
			scalar.Access(a)
		}
		for lo := 0; lo < len(tr.Addrs); {
			n := min(rng.Intn(513), len(tr.Addrs)-lo)
			batch.AccessBatch(tr.Addrs[lo : lo+n])
			lo += n
		}
		batch.AccessBatch(nil)
		assertStackDistEqual(t, "line "+FormatSize(line), scalar, batch)
		for _, size := range []int{1 << 10, 16 << 10, 256 << 10} {
			if s, b := scalar.MissRateAt(size), batch.MissRateAt(size); s != b {
				t.Fatalf("line %d: MissRateAt(%d) diverges: scalar %v batch %v", line, size, s, b)
			}
		}
	}
}

// TestStackDistBatchCompaction drives a scalar-fed and a batch-fed
// profiler across several compactions and index growths, with batch
// blocks straddling each compaction. Compaction renumbers every live
// line, so a batch kernel that lost or reordered one would change the
// distances recorded after it.
func TestStackDistBatchCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	addrs := make([]uint64, 80000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<13)) * 64
	}
	scalar := NewStackDist(64)
	batch := NewStackDist(64)
	var sev, bev sdEvents
	for _, a := range addrs {
		sev.observe(scalar, func() { scalar.Access(a) })
	}
	for lo := 0; lo < len(addrs); {
		n := min(rng.Intn(777), len(addrs)-lo)
		bev.observe(batch, func() { batch.AccessBatch(addrs[lo : lo+n]) })
		lo += n
	}
	sev.require(t, 3, 2)
	bev.require(t, 3, 2)
	assertStackDistEqual(t, "compaction", scalar, batch)
	assertMatchesOracle(t, "compaction", addrs, batch)
}

// TestGroupSimAccessBatch feeds one grouped-sweep plan per address and a
// second in blocks; every configuration's statistics must match.
func TestGroupSimAccessBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := diffTrace(13, 15000)
	cfgs := randomConfigs(rng, 8)

	scalarPlan, err := planSweep(cfgs, true)
	if err != nil {
		t.Fatal(err)
	}
	batchPlan, _ := planSweep(cfgs, true)

	for _, s := range scalarPlan.sinks() {
		for _, a := range tr.Addrs {
			s.Access(a)
		}
	}
	for _, s := range batchPlan.sinks() {
		bs, ok := s.(batchSink)
		if !ok {
			t.Fatalf("plan sink %T does not support batch replay", s)
		}
		for lo := 0; lo < len(tr.Addrs); lo += 1024 {
			hi := min(lo+1024, len(tr.Addrs))
			bs.AccessBatch(tr.Addrs[lo:hi])
		}
	}

	want, got := scalarPlan.stats(), batchPlan.stats()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%v: grouped stats diverge: scalar %+v batch %+v", cfgs[i], want[i], got[i])
		}
	}
}

// FuzzAccessBatch differentially fuzzes the batch kernel against scalar
// replay: any configuration, plain or 3C-classifying, and batch length
// the fuzzer draws must agree on hit counts, statistics (the 3C split
// included) and final cache state. The corpus seeds the paper's
// organizations, fully-associative caches, the scalar-loop policies and
// degenerate batch lengths; 1-address batches carry the kernel's repeat
// state across every block boundary.
func FuzzAccessBatch(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(2), uint8(0), uint16(64), false)   // 4KB 2-way 32B
	f.Add(uint64(2), uint8(5), uint8(5), uint8(2), uint8(0), uint16(1), false)    // 32KB 2-way 128B, 1-addr batches
	f.Add(uint64(3), uint8(7), uint8(5), uint8(1), uint8(0), uint16(4096), false) // 128KB direct 128B
	f.Add(uint64(4), uint8(4), uint8(4), uint8(0), uint8(0), uint16(100), false)  // 16KB FA
	f.Add(uint64(5), uint8(3), uint8(3), uint8(4), uint8(1), uint16(33), false)   // 8KB 4-way FIFO (scalar loop)
	f.Add(uint64(6), uint8(3), uint8(5), uint8(2), uint8(2), uint16(7), false)    // 8KB 2-way random (scalar loop)
	f.Add(uint64(7), uint8(5), uint8(5), uint8(2), uint8(0), uint16(1), true)     // classifying 32KB 2-way 128B, 1-addr batches
	f.Add(uint64(8), uint8(4), uint8(4), uint8(1), uint8(0), uint16(500), true)   // classifying 16KB direct 64B
	f.Add(uint64(9), uint8(4), uint8(4), uint8(0), uint8(0), uint16(1), true)     // classifying 16KB FA, 1-addr batches
	f.Add(uint64(10), uint8(0), uint8(2), uint8(0), uint8(0), uint16(77), true)   // classifying 1KB FA 16B
	f.Add(uint64(11), uint8(2), uint8(3), uint8(8), uint8(0), uint16(2), true)    // classifying 4KB 8-way 32B

	f.Fuzz(func(t *testing.T, seed uint64, sizeLog, lineLog, ways, policy uint8, batchLen uint16, classify bool) {
		cfg := Config{
			SizeBytes: 1 << (10 + sizeLog%8), // 1KB .. 128KB
			LineBytes: 1 << (2 + lineLog%7),  // 4B .. 256B
			Ways:      int(ways % 9),
			Policy:    Replacement(policy % 3),
		}
		if cfg.Validate() != nil {
			return
		}
		n := int(batchLen)%4096 + 1
		rng := rand.New(rand.NewSource(int64(seed)))
		addrs := make([]uint64, 4096)
		base := uint64(0)
		for i := range addrs {
			switch r := rng.Float64(); {
			case r < 0.5:
				addrs[i] = uint64(rng.Intn(2 << 10))
			case r < 0.9:
				addrs[i] = base + uint64(rng.Intn(32<<10))
			default:
				base += uint64(rng.Intn(1 << 18))
				addrs[i] = base
			}
		}

		mk := New
		if classify {
			mk = NewClassifying
		}
		scalar, batch := mk(cfg), mk(cfg)
		wantHits := 0
		for _, a := range addrs {
			if scalar.Access(a) {
				wantHits++
			}
		}
		gotHits := 0
		for lo := 0; lo < len(addrs); lo += n {
			hi := min(lo+n, len(addrs))
			gotHits += batch.AccessBatch(addrs[lo:hi])
		}
		if wantHits != gotHits {
			t.Fatalf("%v classify=%v batch %d: hit count diverges: scalar %d batch %d", cfg, classify, n, wantHits, gotHits)
		}
		assertCacheEqual(t, cfg.String(), scalar, batch)
	})
}

// TestAccessBatchAfterFlush replays batch, Flush, batch against the same
// sequence through scalar Access. The second batch starts on the line
// the first one ended on, so a kernel that kept its repeat state across
// Flush would count the flushed line as a hit.
func TestAccessBatchAfterFlush(t *testing.T) {
	tr := diffTrace(17, 3000)
	first := append(append([]uint64{}, tr.Addrs...), 1<<20)
	second := append([]uint64{1<<20 + 4}, tr.Addrs...)
	for _, cfg := range []Config{
		{SizeBytes: 4 << 10, LineBytes: 64, Ways: 2},
		{SizeBytes: 2 << 10, LineBytes: 32, Ways: 1},
		{SizeBytes: 4 << 10, LineBytes: 64, Ways: 0},
	} {
		for _, mk := range []func(Config) *Cache{New, NewClassifying} {
			scalar, batch := mk(cfg), mk(cfg)
			for _, a := range first {
				scalar.Access(a)
			}
			scalar.Flush()
			for _, a := range second {
				scalar.Access(a)
			}
			batch.AccessBatch(first)
			batch.Flush()
			batch.AccessBatch(second)
			assertCacheEqual(t, cfg.String(), scalar, batch)
		}
	}
}
