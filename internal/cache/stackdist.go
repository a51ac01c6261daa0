package cache

import "math/bits"

// StackDist is an LRU stack-distance profiler (Mattson et al.'s stack
// algorithm with a Fenwick-tree acceleration). Feeding it the texel
// address trace once yields the exact miss rate of a fully-associative
// LRU cache of *every* capacity simultaneously, which is how the
// miss-rate-versus-cache-size working-set curves (Figures 5.2, 5.6 and
// 6.2 of the paper) are produced without re-simulating per size.
//
// The profiler works at line granularity: construct it with the line size
// under study.
//
// Each live line holds one marker on a virtual time axis, at the time of
// its last access, and a Fenwick tree over the axis counts the markers;
// a line's stack distance is the number of markers at or after its own.
// The clock advances only when the accessed line changes. A re-access of
// the most recently used line is distance 1 and leaves the stack as it
// was, and texture traces repeat their previous line on a third to two
// thirds of all accesses, so that case costs one comparison.
//
// Lines are found through an open-addressing index: linear probing on a
// Fibonacci hash, doubled at 3/4 load. Lines are never removed, so the
// index needs no tombstones. The axis starts at 2^14 times. When the
// clock runs off its end the profiler compacts: live lines are
// renumbered 1..n in recency order, which preserves every distance, and
// the axis doubles while more than a quarter of it would be live. Memory
// is therefore proportional to the distinct lines touched, and a
// compaction, a few sequential passes over the axis and the index, comes
// at most once per 3/4 of the axis's length in accesses.
type StackDist struct {
	lineShift uint
	lineBytes int

	mru uint64 // line of the previous access; noLine before the first

	// slots is the line index; a slot with t == 0 is empty.
	slots     []sdSlot
	hashShift uint  // 64 - log2(len(slots))
	live      int32 // distinct lines seen, each with one marker

	// tree is a 1-based Fenwick tree over times 1..len(tree)-1, whose
	// length less one is a power of two.
	tree []int32
	now  int32 // next virtual time to assign

	hist     []uint64 // hist[d] = accesses with stack distance d (1-based)
	cold     uint64   // first-ever accesses (infinite distance)
	accesses uint64
}

// sdSlot is one entry of the line index: a line address and the virtual
// time of its last access.
type sdSlot struct {
	line uint64
	t    int32
}

const (
	sdInitialAxis  = 1 << 14
	sdInitialSlots = 1 << 10
	// sdMaxAxis bounds the time axis, so every virtual time, and the live
	// count that never exceeds it, fits an int32.
	sdMaxAxis = 1 << 30
	// fibonacci is 2^64 divided by the golden ratio: multiplying by it
	// spreads consecutive line addresses across the index.
	fibonacci = 0x9E3779B97F4A7C15
	// noLine is no line address: addresses shift right by at least two.
	noLine = ^uint64(0)
)

// NewStackDist returns a profiler for the given cache line size, which
// must be a power of two >= 4.
func NewStackDist(lineBytes int) *StackDist {
	if lineBytes < 4 || bits.OnesCount(uint(lineBytes)) != 1 {
		panic("cache: stack distance line size must be a power of two >= 4")
	}
	return &StackDist{
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		lineBytes: lineBytes,
		mru:       noLine,
		slots:     make([]sdSlot, sdInitialSlots),
		hashShift: 64 - uint(bits.TrailingZeros(sdInitialSlots)),
		tree:      make([]int32, sdInitialAxis+1),
		now:       1,
		hist:      make([]uint64, 2),
	}
}

// LineBytes returns the line size the profiler was built for.
func (s *StackDist) LineBytes() int { return s.lineBytes }

// Access records one texel byte address.
func (s *StackDist) Access(addr uint64) { s.AccessBatch([]uint64{addr}) }

// AccessBatch records every address of addrs in order, exactly as
// len(addrs) Access calls would. Repeats of the previous line are
// counted in a register and tallied once per block.
func (s *StackDist) AccessBatch(addrs []uint64) {
	shift, mru := s.lineShift, s.mru
	var repeats uint64
	for _, addr := range addrs {
		if la := addr >> shift; la != mru {
			mru = la
			s.touch(la)
		} else {
			repeats++
		}
	}
	s.mru = mru
	s.hist[1] += repeats
	s.accesses += uint64(len(addrs))
}

// touch moves line la, which is not the most recently used line, to the
// top of the stack at a new virtual time and records its distance.
func (s *StackDist) touch(la uint64) {
	if int(s.now) == len(s.tree) {
		s.compact()
	}
	t := s.now
	s.now++
	mask := len(s.slots) - 1
	for i := int(la * fibonacci >> s.hashShift); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.t == 0 {
			sl.line, sl.t = la, t
			s.cold++
			s.live++
			for j := int(t); j < len(s.tree); j += j & -j {
				s.tree[j]++
			}
			if int(s.live)*4 > len(s.slots)*3 {
				s.grow()
			}
			return
		}
		if sl.line == la {
			lt := sl.t
			// The markers at or after lt: la's own and those of every
			// distinct line touched since.
			s.record(s.live - s.prefix(lt-1))
			sl.t = t
			s.move(lt, t)
			return
		}
	}
}

// record tallies one access at stack distance d.
func (s *StackDist) record(d int32) {
	for int(d) >= len(s.hist) {
		s.hist = append(s.hist, make([]uint64, len(s.hist))...)
	}
	s.hist[d]++
}

// prefix returns the number of markers at times 1..t.
func (s *StackDist) prefix(t int32) int32 {
	var sum int32
	for ; t > 0; t -= t & -t {
		sum += s.tree[t]
	}
	return sum
}

// move shifts one marker from time from to the later time to. Both
// update paths end at the axis's power-of-two top, so they meet; past
// the meeting node the -1 and the +1 cancel and the walk stops.
func (s *StackDist) move(from, to int32) {
	for from != to {
		if from < to {
			s.tree[from]--
			from += from & -from
		} else {
			s.tree[to]++
			to += to & -to
		}
	}
}

// grow doubles the line index and reinserts every live line.
func (s *StackDist) grow() {
	old := s.slots
	s.slots = make([]sdSlot, 2*len(old))
	s.hashShift--
	mask := len(s.slots) - 1
	for _, sl := range old {
		if sl.t == 0 {
			continue
		}
		i := int(sl.line * fibonacci >> s.hashShift)
		for s.slots[i].t != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// compact renumbers the live lines 1..n in recency order, growing the
// axis while more than a quarter of it would be live, and rebuilds the
// tree.
func (s *StackDist) compact() {
	tree := s.tree
	top := len(tree) - 1
	// Undo the Fenwick sums, leaving each time's own marker (0 or 1),
	// then sum them forward: tree[t] becomes the number of markers at
	// times 1..t, which is the new time of the line whose marker is at t.
	for i := top; i > 0; i-- {
		if j := i + i&-i; j <= top {
			tree[j] -= tree[i]
		}
	}
	for i := 2; i <= top; i++ {
		tree[i] += tree[i-1]
	}
	for i := range s.slots {
		if t := s.slots[i].t; t != 0 {
			s.slots[i].t = tree[t]
		}
	}
	axis := top
	for int(s.live) > axis/4 {
		axis *= 2
	}
	if axis > sdMaxAxis {
		panic("cache: stack-distance profiler exceeded 2^28 distinct lines")
	}
	if axis != top {
		s.tree = make([]int32, axis+1)
	}
	// Markers now sit at 1..live; node i counts those in (i-lowbit(i), i].
	n := int(s.live)
	for i := 1; i < len(s.tree); i++ {
		s.tree[i] = int32(max(0, min(i, n)-(i-i&-i)))
	}
	s.now = s.live + 1
}

// Accesses returns the number of accesses profiled.
func (s *StackDist) Accesses() uint64 { return s.accesses }

// ColdMisses returns the number of first-ever line accesses.
func (s *StackDist) ColdMisses() uint64 { return s.cold }

// DistinctLines returns the number of distinct cache lines touched.
func (s *StackDist) DistinctLines() int { return int(s.live) }

// MissesAt returns the number of misses a fully-associative LRU cache
// with the given capacity in lines would incur on the profiled trace.
func (s *StackDist) MissesAt(lines int) uint64 {
	if lines <= 0 {
		return s.accesses
	}
	var hits uint64
	for d := 1; d <= lines && d < len(s.hist); d++ {
		hits += s.hist[d]
	}
	return s.accesses - hits
}

// MissRateAt returns the fully-associative LRU miss rate at a cache of
// sizeBytes capacity (with the profiler's line size).
func (s *StackDist) MissRateAt(sizeBytes int) float64 {
	if s.accesses == 0 {
		return 0
	}
	return float64(s.MissesAt(sizeBytes/s.lineBytes)) / float64(s.accesses)
}

// Curve evaluates the miss rate at each of the given cache sizes in
// bytes, in order — one figure series per call.
func (s *StackDist) Curve(sizesBytes []int) []float64 {
	out := make([]float64, len(sizesBytes))
	for i, sz := range sizesBytes {
		out[i] = s.MissRateAt(sz)
	}
	return out
}
