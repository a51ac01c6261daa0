package cache

import (
	"math/bits"

	"texcache/internal/obs"
)

// Single-pass all-configuration simulation (the Cheetah / Hill & Smith
// "all-associativity" algorithm). Mattson stack processing (stackdist.go)
// collapses every fully-associative LRU capacity into one trace walk;
// this file generalizes it to set-associative organizations: every sweep
// configuration that shares a line size and uses LRU replacement with
// power-of-two bit-selected sets is evaluated from one recency stack in
// one pass, so a size x associativity grid costs one walk per line size
// instead of one walk per configuration.
//
// The invariant that makes it work: under bit-selection indexing, the
// lines mapping to one set of a 2^k-set cache are exactly the lines whose
// low k line-address bits match, and per-set LRU state depends only on
// the subsequence of accesses to those lines. A reference therefore hits
// a (2^k sets, A ways) cache iff fewer than A distinct matching lines
// were referenced since its previous reference. One walk down the global
// recency stack, bucketing each intervening line by how many low address
// bits it shares with the referenced line, answers that predicate for
// every (k, A) point at once — and the walk length itself (the classic
// stack distance) answers both the fully-associative configurations and
// the equal-size fully-associative shadow that splits capacity from
// conflict misses.

// groupedCfg is one sweep configuration projected onto the group's
// recency stack: a (sets, ways) point, or a fully-associative capacity.
type groupedCfg struct {
	k     uint   // log2(NumSets); meaningful when !fa
	ways  uint64 // hit iff same-set distance < ways; meaningful when !fa
	lines uint64 // NumLines: FA capacity, and the 3C shadow capacity
	fa    bool   // fully associative (Ways == 0)

	misses   uint64 // non-cold misses (cold is shared per group)
	capacity uint64
	conflict uint64
}

// groupSim simulates every registered configuration of one line size in
// a single pass. It is a Sink; replay the trace through it once and read
// per-configuration Stats back with statsAt.
type groupSim struct {
	lineShift uint
	kmax      uint // largest log2(NumSets) across registered configs
	cfgs      []groupedCfg

	// The global recency (LRU) stack: a singly-linked list of every line
	// ever touched, most recent first, over a compact slab. Unlinking
	// needs no back pointers because every unlink is preceded by a walk
	// from the head that tracks the predecessor.
	nodes []gsNode
	head  int32

	// Line address -> stack slot, as an insert-only open-addressing table
	// (the stack never evicts, so no deletions and no tombstones). One
	// multiplicative hash plus a short linear probe beats the general map
	// on this single hottest lookup of the walk.
	htKeys  []uint64
	htSlots []int32
	htShift uint // 64 - log2(len(htSlots)); hash = (la * phi) >> htShift
	htUsed  int

	bucket []uint64 // scratch: intervening lines by shared-low-bit count
	cnt    []uint64 // scratch: suffix sums of bucket

	accesses uint64
	cold     uint64 // first-ever line references: a cold miss everywhere
}

type gsNode struct {
	addr uint64
	next int32
}

// gsHashMul is the 64-bit golden-ratio multiplier of Fibonacci hashing;
// the table start index is its product's top bits.
const gsHashMul = 0x9E3779B97F4A7C15

// newGroupSim returns an empty group for one line size. Configurations
// are registered with add before the trace is replayed.
func newGroupSim(lineBytes int) *groupSim {
	g := &groupSim{
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		head:      nilNode,
		bucket:    make([]uint64, 1),
		cnt:       make([]uint64, 1),
	}
	g.htInit(13)
	return g
}

// htInit sizes the hash table at 2^logCap slots, all empty.
func (g *groupSim) htInit(logCap uint) {
	g.htKeys = make([]uint64, 1<<logCap)
	g.htSlots = make([]int32, 1<<logCap)
	for i := range g.htSlots {
		g.htSlots[i] = nilNode
	}
	g.htShift = 64 - logCap
	g.htUsed = 0
}

// htFind probes for la, returning its stack slot, the table index the
// probe ended at (la's index on hit, the insertion point on miss), and
// whether it was found.
func (g *groupSim) htFind(la uint64) (int32, uint64, bool) {
	mask := uint64(len(g.htSlots) - 1)
	for j := (la * gsHashMul) >> g.htShift; ; j = (j + 1) & mask {
		s := g.htSlots[j]
		if s == nilNode {
			return 0, j, false
		}
		if g.htKeys[j] == la {
			return s, j, true
		}
	}
}

// htInsert records la -> slot at the probe position htFind returned,
// growing (and re-probing) when the table passes 3/4 load.
func (g *groupSim) htInsert(la uint64, slot int32, j uint64) {
	if g.htUsed >= len(g.htSlots)/4*3 {
		old := g.htSlots
		oldKeys := g.htKeys
		oldUsed := g.htUsed
		g.htInit(64 - g.htShift + 1)
		for i, s := range old {
			if s != nilNode {
				_, jj, _ := g.htFind(oldKeys[i])
				g.htKeys[jj] = oldKeys[i]
				g.htSlots[jj] = s
			}
		}
		g.htUsed = oldUsed
		_, j, _ = g.htFind(la)
	}
	g.htKeys[j] = la
	g.htSlots[j] = slot
	g.htUsed++
}

// add registers one validated LRU configuration with the group's line
// size and returns its slot for statsAt.
func (g *groupSim) add(cfg Config) int {
	gc := groupedCfg{lines: uint64(cfg.NumLines())}
	if cfg.Ways == 0 {
		gc.fa = true
	} else {
		gc.k = uint(bits.TrailingZeros(uint(cfg.NumSets())))
		gc.ways = uint64(cfg.Ways)
		if gc.k > g.kmax {
			g.kmax = gc.k
			g.bucket = make([]uint64, g.kmax+1)
			g.cnt = make([]uint64, g.kmax+1)
		}
	}
	g.cfgs = append(g.cfgs, gc)
	return len(g.cfgs) - 1
}

// Access presents one texel byte address to every configuration in the
// group.
func (g *groupSim) Access(addr uint64) {
	la := addr >> g.lineShift
	g.accesses++
	if g.head != nilNode && g.nodes[g.head].addr == la {
		// Re-reference of the most recent line: a hit everywhere, with no
		// hash probe at all — the dominant case on texture streams, where
		// a filter footprint fetches the same line several times in a row.
		return
	}
	i, j, ok := g.htFind(la)
	if !ok {
		// First-ever reference: a cold miss in every configuration, and
		// the new line becomes the most recent. O(1) regardless of how
		// many configurations the group carries.
		g.cold++
		n := int32(len(g.nodes))
		g.nodes = append(g.nodes, gsNode{addr: la, next: g.head})
		g.head = n
		g.htInsert(la, n, j)
		return
	}

	nodes := g.nodes
	if nodes[g.head].next == i {
		// Distance 1 — one intervening line, the other common case on
		// texture streams (trilinear alternates two Mip levels). The
		// bucket collapses to a single comparison per configuration:
		// the intervening line is in la's set iff it shares at least the
		// set-index bits, and only a direct-mapped point can miss on it.
		k1 := uint(bits.TrailingZeros64(nodes[g.head].addr ^ la))
		for j := range g.cfgs {
			cf := &g.cfgs[j]
			if cf.fa {
				if cf.lines <= 1 {
					cf.misses++
					cf.capacity++
				}
				continue
			}
			if cf.ways == 1 && k1 >= cf.k {
				cf.misses++
				if cf.lines > 1 {
					cf.conflict++
				} else {
					cf.capacity++
				}
			}
		}
		nodes[g.head].next = nodes[i].next
		nodes[i].next = g.head
		g.head = i
		return
	}

	// Walk the stack down to la, bucketing each intervening line by how
	// many low line-address bits it shares with la (capped at kmax).
	// bucket is zeroed on the way out by the suffix-sum pass below, so
	// the scratch arrays cost one combined sweep, not two.
	bucket := g.bucket
	prev := g.head // predecessor of i once the walk ends (i != head here)
	for n := g.head; n != i; n = nodes[n].next {
		k := uint(bits.TrailingZeros64(nodes[n].addr ^ la))
		if k > g.kmax {
			k = g.kmax
		}
		bucket[k]++
		prev = n
	}
	// cnt[k] = lines above la that map to la's set under 2^k sets; the
	// k = 0 entry is the plain stack distance.
	cnt := g.cnt
	var sum uint64
	for k := int(g.kmax); k >= 0; k-- {
		sum += bucket[k]
		bucket[k] = 0
		cnt[k] = sum
	}
	above := sum

	for j := range g.cfgs {
		cf := &g.cfgs[j]
		if cf.fa {
			if above >= cf.lines {
				cf.misses++
				cf.capacity++
			}
			continue
		}
		if cnt[cf.k] >= cf.ways {
			cf.misses++
			// The 3C split: a miss that would hit an equal-size fully-
			// associative cache is a conflict miss, the rest are capacity.
			if above < cf.lines {
				cf.conflict++
			} else {
				cf.capacity++
			}
		}
	}

	// Move la to the top of the stack.
	g.nodes[prev].next = nodes[i].next
	g.nodes[i].next = g.head
	g.head = i
}

// AccessBatch presents a whole ordered block to the group, sparing the
// replay loops one interface call per address; the walk itself is
// unchanged, so results are bit-identical to per-address Access.
func (g *groupSim) AccessBatch(addrs []uint64) {
	for _, a := range addrs {
		g.Access(a)
	}
}

// statsAt assembles the Stats of the configuration registered at slot.
func (g *groupSim) statsAt(slot int) Stats {
	cf := &g.cfgs[slot]
	return Stats{
		Accesses: g.accesses,
		Misses:   cf.misses + g.cold,
		Cold:     g.cold,
		Capacity: cf.capacity,
		Conflict: cf.conflict,
	}
}

// sweepPlan routes each configuration of a grouped sweep to either a
// per-line-size group simulator or a cache of its own.
type sweepPlan struct {
	groups map[int]*groupSim // keyed by line size
	caches []*Cache          // configurations replayed on their own cache
	gsFor  []*groupSim       // per config: its group, or nil for its own cache
	slot   []int             // per config: index within its group or caches
}

// planSweep validates cfgs and builds the routing plan. A line size
// that carries two or more LRU configurations shares one grouped walk
// among them (Validate guarantees power-of-two set counts). A line size
// with a single LRU configuration replays it on its own cache instead:
// the walk costs about the same per access whatever it answers, and
// Cache.AccessBatch answers one configuration for less. FIFO and random
// replacement depend on more than the recency order, so they too take
// a cache each. Every own cache is classifying when classify is set, as
// SimulateConfigs builds, and plain otherwise, because a rate-only
// sweep never reads the 3C split.
func planSweep(cfgs []Config, classify bool) (*sweepPlan, error) {
	lru := map[int]int{} // LRU configurations per line size
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if cfg.Policy == LRU {
			lru[cfg.LineBytes]++
		}
	}
	p := &sweepPlan{
		groups: map[int]*groupSim{},
		gsFor:  make([]*groupSim, len(cfgs)),
		slot:   make([]int, len(cfgs)),
	}
	for i, cfg := range cfgs {
		if cfg.Policy == LRU && lru[cfg.LineBytes] > 1 {
			g := p.groups[cfg.LineBytes]
			if g == nil {
				g = newGroupSim(cfg.LineBytes)
				p.groups[cfg.LineBytes] = g
			}
			p.gsFor[i] = g
			p.slot[i] = g.add(cfg)
			continue
		}
		c := New(cfg)
		if classify {
			c = NewClassifying(cfg)
		}
		p.slot[i] = len(p.caches)
		p.caches = append(p.caches, c)
	}

	grouped := len(cfgs) - len(p.caches)
	reg := obs.Default().Sub("groupsim")
	reg.Counter("grouped_configs").Add(uint64(grouped))
	reg.Counter("fallback_configs").Add(uint64(len(p.caches)))
	if grouped > len(p.groups) {
		// Walks the grouping avoided versus per-config simulation.
		reg.Counter("passes_saved").Add(uint64(grouped - len(p.groups)))
	}
	return p, nil
}

// sinks returns every simulator of the plan as a replayable Sink list.
func (p *sweepPlan) sinks() []Sink {
	out := make([]Sink, 0, len(p.groups)+len(p.caches))
	for _, g := range p.groups {
		out = append(out, g)
	}
	for _, c := range p.caches {
		out = append(out, c.Sink())
	}
	return out
}

// stats gathers per-configuration statistics, index-aligned with the
// planned configuration list.
func (p *sweepPlan) stats() []Stats {
	out := make([]Stats, len(p.gsFor))
	for i, g := range p.gsFor {
		if g != nil {
			out[i] = g.statsAt(p.slot[i])
		} else {
			out[i] = p.caches[p.slot[i]].Stats()
		}
	}
	return out
}
