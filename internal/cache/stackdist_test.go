package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// mattsonStack is the reference oracle for StackDist: Mattson's LRU
// stack kept as a plain slice, most recent line first, and searched
// linearly on every access, so one access costs O(distance).
type mattsonStack struct {
	lineShift uint
	stack     []uint64 // stack[0] is the most recently used line
	seen      map[uint64]bool
	hist      []uint64
	cold      uint64
	accesses  uint64
}

func newMattsonStack(lineBytes int) *mattsonStack {
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	return &mattsonStack{lineShift: shift, seen: map[uint64]bool{}}
}

func (m *mattsonStack) access(addr uint64) {
	la := addr >> m.lineShift
	m.accesses++
	d := len(m.stack)
	if m.seen[la] {
		d = slices.Index(m.stack, la)
		for len(m.hist) <= d+1 {
			m.hist = append(m.hist, 0)
		}
		m.hist[d+1]++
	} else {
		m.seen[la] = true
		m.cold++
		m.stack = append(m.stack, 0)
	}
	copy(m.stack[1:d+1], m.stack[:d])
	m.stack[0] = la
}

// sdProfile is everything a profile answers: the distance histogram
// without trailing zeros, the cold and access counts and the number of
// distinct lines.
type sdProfile struct {
	hist           []uint64
	cold, accesses uint64
	distinct       int
}

func profileOf(s *StackDist) sdProfile {
	return sdProfile{trimZeros(s.hist), s.ColdMisses(), s.Accesses(), s.DistinctLines()}
}

func (m *mattsonStack) profile() sdProfile {
	return sdProfile{trimZeros(m.hist), m.cold, m.accesses, len(m.stack)}
}

func trimZeros(h []uint64) []uint64 {
	n := len(h)
	for n > 0 && h[n-1] == 0 {
		n--
	}
	return h[:n]
}

func assertProfileEqual(t *testing.T, label string, want, got sdProfile) {
	t.Helper()
	if want.cold != got.cold || want.accesses != got.accesses || want.distinct != got.distinct {
		t.Fatalf("%s: profile diverges: want (acc %d cold %d lines %d) got (acc %d cold %d lines %d)",
			label, want.accesses, want.cold, want.distinct, got.accesses, got.cold, got.distinct)
	}
	if !slices.Equal(want.hist, got.hist) {
		t.Fatalf("%s: distance histogram diverges:\nwant %v\ngot  %v", label, want.hist, got.hist)
	}
}

// assertMatchesOracle replays addrs through the list-based oracle at s's
// line size and requires s's profile to equal it.
func assertMatchesOracle(t *testing.T, label string, addrs []uint64, s *StackDist) {
	t.Helper()
	m := newMattsonStack(s.LineBytes())
	for _, a := range addrs {
		m.access(a)
	}
	assertProfileEqual(t, label, m.profile(), profileOf(s))
}

// sdEvents counts, from the profiler's own fields, the compactions (the
// clock running backwards) and index growths (the slot table changing
// size) that a sequence of feeds crossed. It counts at most one of each
// per feed, so it is a lower bound.
type sdEvents struct{ compactions, growths int }

func (e *sdEvents) observe(s *StackDist, feed func()) {
	now, slots := s.now, len(s.slots)
	feed()
	if s.now < now {
		e.compactions++
	}
	if len(s.slots) != slots {
		e.growths++
	}
}

func (e *sdEvents) require(t *testing.T, compactions, growths int) {
	t.Helper()
	if e.compactions < compactions || e.growths < growths {
		t.Fatalf("crossed %d compactions and %d index growths, want at least %d and %d",
			e.compactions, e.growths, compactions, growths)
	}
}

func TestStackDistSimpleSequence(t *testing.T) {
	s := NewStackDist(4) // line == one address unit of 4 bytes
	// Access lines A B C A: A's re-access has stack distance 3.
	s.Access(0) // A cold
	s.Access(4) // B cold
	s.Access(8) // C cold
	s.Access(0) // A, distance 3
	if s.ColdMisses() != 3 {
		t.Errorf("cold = %d, want 3", s.ColdMisses())
	}
	if s.Accesses() != 4 {
		t.Errorf("accesses = %d, want 4", s.Accesses())
	}
	// Capacity 3 lines: the re-access hits. Misses = 3 cold.
	if got := s.MissesAt(3); got != 3 {
		t.Errorf("MissesAt(3) = %d, want 3", got)
	}
	// Capacity 2 lines: the re-access misses too.
	if got := s.MissesAt(2); got != 4 {
		t.Errorf("MissesAt(2) = %d, want 4", got)
	}
}

func TestStackDistEmptyAndZeroCapacity(t *testing.T) {
	s := NewStackDist(32)
	if got := s.MissRateAt(1 << 10); got != 0 {
		t.Errorf("empty profile MissRateAt = %v, want 0", got)
	}
	s.AccessBatch([]uint64{0, 0, 64})
	// A cache with no lines misses every access.
	if got := s.MissesAt(0); got != 3 {
		t.Errorf("MissesAt(0) = %d, want 3", got)
	}
}

func TestStackDistMRUHit(t *testing.T) {
	s := NewStackDist(4)
	s.Access(0)
	s.Access(0)
	s.Access(0)
	// Distance-1 re-accesses hit in any cache with >= 1 line.
	if got := s.MissesAt(1); got != 1 {
		t.Errorf("MissesAt(1) = %d, want 1", got)
	}
}

func TestStackDistMatchesDirectSimulation(t *testing.T) {
	// Property: for random traces, the profiler's miss count at capacity C
	// equals a directly simulated fully-associative LRU cache of C lines.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 2000 + rng.Intn(3000)
		addrs := make([]uint64, n)
		for i := range addrs {
			switch rng.Intn(3) {
			case 0:
				addrs[i] = uint64(rng.Intn(1 << 12))
			case 1: // sequential run
				addrs[i] = uint64(i*8) % (1 << 11)
			default: // revisit a recent address
				if i > 10 {
					addrs[i] = addrs[i-1-rng.Intn(10)]
				}
			}
		}
		const lineB = 32
		s := NewStackDist(lineB)
		for _, a := range addrs {
			s.Access(a)
		}
		for _, lines := range []int{1, 2, 4, 8, 16, 64, 256} {
			c := New(Config{SizeBytes: lines * lineB, LineBytes: lineB, Ways: 0})
			for _, a := range addrs {
				c.Access(a)
			}
			want := c.Stats().Misses
			if got := s.MissesAt(lines); got != want {
				t.Fatalf("trial %d lines %d: stackdist misses %d, direct sim %d",
					trial, lines, got, want)
			}
		}
	}
}

func TestStackDistCompaction(t *testing.T) {
	// 4096 distinct lines grow the line index from 1024 slots to 8192;
	// then a cycle over 8 lines runs the clock across the axis again and
	// again. Every cycle access has distance 8, and compaction must not
	// move any of them.
	const lines, cycle = 4096, 5 * sdInitialAxis
	s := NewStackDist(4)
	var ev sdEvents
	var addrs []uint64
	for i := 0; i < lines+cycle; i++ {
		a := uint64(i) * 4
		if i >= lines {
			a = uint64(i%8) * 4
		}
		addrs = append(addrs, a)
		ev.observe(s, func() { s.Access(a) })
	}
	ev.require(t, 3, 2)
	if got, want := s.MissesAt(8), uint64(lines+8); got != want {
		t.Errorf("MissesAt(8) = %d, want %d (cold only)", got, want)
	}
	if got := s.MissesAt(7); got != uint64(len(addrs)) {
		t.Errorf("MissesAt(7) = %d, want %d (every access misses)", got, len(addrs))
	}
	assertMatchesOracle(t, "compaction", addrs, s)
}

func TestStackDistCurve(t *testing.T) {
	s := NewStackDist(32)
	for i := 0; i < 10000; i++ {
		s.Access(uint64(i*4) % 4096)
	}
	sizes := []int{128, 512, 4096}
	curve := s.Curve(sizes)
	if len(curve) != 3 {
		t.Fatalf("curve has %d points", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Errorf("curve not monotone: %v", curve)
		}
	}
	// 4KB cache holds the whole 4KB working set: only cold misses remain.
	wantCold := float64(4096/32) / 10000
	if curve[2] != wantCold {
		t.Errorf("full-size miss rate = %v, want %v", curve[2], wantCold)
	}
}

func TestStackDistDistinctLines(t *testing.T) {
	s := NewStackDist(64)
	for a := uint64(0); a < 1024; a += 4 {
		s.Access(a)
	}
	if got := s.DistinctLines(); got != 16 {
		t.Errorf("DistinctLines = %d, want 16", got)
	}
	if s.LineBytes() != 64 {
		t.Errorf("LineBytes = %d", s.LineBytes())
	}
}

func TestStackDistInvalidLine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad line size")
		}
	}()
	NewStackDist(3)
}

// TestStackDistMatchesMattsonOracle checks the kernel against the
// list-based Mattson stack on the stream shapes its shortcuts depend on:
// long runs on the most recently used line, more distinct lines than the
// initial time axis holds, and Access and AccessBatch interleaved.
func TestStackDistMatchesMattsonOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))

	// Runs of up to 40 repeats of a line drawn from a 600-line pool,
	// with short strides between neighbouring addresses.
	var runs []uint64
	for len(runs) < 60000 {
		a := uint64(rng.Intn(600)) * 32
		for k := rng.Intn(40); k >= 0; k-- {
			runs = append(runs, a+uint64(rng.Intn(32)))
		}
	}

	// A window sliding over 24K lines, with returns to a small hot set:
	// the live set outgrows the 2^14-time axis, so the axis doubles.
	var wide []uint64
	for i := 0; i < 90000; i++ {
		if rng.Intn(4) == 0 {
			wide = append(wide, uint64(rng.Intn(64))*16)
		} else {
			wide = append(wide, uint64(i/4+rng.Intn(64))%24000*16)
		}
	}

	for _, tc := range []struct {
		name      string
		lineBytes int
		addrs     []uint64
	}{
		{"mru-runs/32B", 32, runs},
		{"mru-runs/4B", 4, runs},
		{"wide/16B", 16, wide},
		{"wide/64B", 64, wide},
	} {
		scalar := NewStackDist(tc.lineBytes)
		for _, a := range tc.addrs {
			scalar.Access(a)
		}
		assertMatchesOracle(t, tc.name+" scalar", tc.addrs, scalar)

		// Alternate single Access calls with batches of random length.
		mixed := NewStackDist(tc.lineBytes)
		for lo := 0; lo < len(tc.addrs); {
			if rng.Intn(2) == 0 {
				mixed.Access(tc.addrs[lo])
				lo++
				continue
			}
			n := min(rng.Intn(300), len(tc.addrs)-lo)
			mixed.AccessBatch(tc.addrs[lo : lo+n])
			lo += n
		}
		assertProfileEqual(t, tc.name+" mixed", profileOf(scalar), profileOf(mixed))
	}
	s := NewStackDist(16)
	s.AccessBatch(wide)
	if len(s.tree)-1 <= sdInitialAxis {
		t.Errorf("wide stream never grew the time axis past %d", sdInitialAxis)
	}
}
