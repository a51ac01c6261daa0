// The Pareto frontier of the design space: miss rate against the
// hardware cost of each cache organization.
package shard

import "sort"

// Point is one measured design point: a (trace, config) unit with its
// replay statistics and hardware cost.
type Point struct {
	// Unit is the unit's Tag (global index + content key).
	Unit string
	// Label is the configuration's display string ("32KB 2-way 128B
	// lines"); frontier output carries it verbatim.
	Label string
	// Accesses and Misses are the replay's integer statistics, kept as
	// integers so the miss rate recomputes identically from any stream.
	Accesses, Misses uint64
	// Cost is the configuration's hardware cost (cost.ConfigCost).
	Cost int64
}

// MissRate returns Misses/Accesses, 0 for an empty trace — the same
// arithmetic cache.Stats.MissRate performs, so rates agree bit-for-bit.
func (p Point) MissRate() float64 {
	if p.Accesses == 0 {
		return 0
	}
	return float64(p.Misses) / float64(p.Accesses)
}

// dominates reports whether a strictly dominates b in (miss rate, cost):
// no worse on both axes, strictly better on at least one.
func dominates(a, b Point) bool {
	am, bm := a.MissRate(), b.MissRate()
	if am > bm || a.Cost > b.Cost {
		return false
	}
	return am < bm || a.Cost < b.Cost
}

// Frontier returns the non-dominated subset of pts in canonical order:
// cost ascending, then miss rate, then unit tag. Exact ties on both
// axes are all kept — they are equally good designs.
func Frontier(pts []Point) []Point {
	var out []Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i != j && dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		if mi, mj := out[i].MissRate(), out[j].MissRate(); mi != mj {
			return mi < mj
		}
		return out[i].Unit < out[j].Unit
	})
	return out
}
