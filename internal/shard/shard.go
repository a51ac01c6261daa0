// Package shard partitions a design-space grid into deterministic,
// content-addressed work units so the exploration can be split across
// worker processes and merged back together bit-identically.
//
// Enumerate expands an api.Grid cross-product into trace groups — one
// per (scene, scale, layout, traversal) — each carrying its (trace,
// config) units in a stable global order. Both groups and units are
// content-addressed: their keys hash the fully resolved identity, so a
// grid that spells a default out explicitly keys identically to one
// that leaves it blank, and any change that would alter the simulated
// stream changes the key.
//
// Sharding is trace-affine: Assigned hands worker i of n every group
// whose index is congruent to i mod n, all of a trace's configs
// together, so each trace renders once machine-wide (no two workers
// ever want the same render).
//
// The other half of the package reassembles results: Collector parses
// the engine's grid NDJSON rows back into measured points, MergeStreams
// k-way merges per-shard streams into the canonical unsharded order,
// and pareto.go computes the miss-rate/cost frontier.
package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"texcache/internal/api"
	"texcache/internal/cache"
	"texcache/internal/exp"
	"texcache/internal/raster"
	"texcache/internal/scenes"
	"texcache/internal/texture"
)

// Slice identifies one worker's share of a grid: the trace groups with
// Index ≡ Index (mod Count). The zero Count is invalid; {0, 1} is the
// whole grid.
type Slice struct {
	Index, Count int
}

// Unit is one (trace, config) design point: the atom of grid work.
type Unit struct {
	// Index is the unit's position in the whole grid's enumeration,
	// counted across all trace groups.
	Index int
	// Key is the 12-hex-digit content hash of the fully resolved
	// (scene, scale, layout, traversal, config) identity.
	Key string
	// Config is the cache organization this unit replays.
	Config cache.Config
}

// Tag renders the unit's stable identity for output rows: global index
// plus content key, e.g. "u00007-3f2a90c1d44e".
func (u Unit) Tag() string { return fmt.Sprintf("u%05d-%s", u.Index, u.Key) }

// TraceGroup is every unit sharing one rendered trace, the granule of
// shard assignment and of engine scheduling.
type TraceGroup struct {
	// Index is the group's position in the grid's trace enumeration.
	Index int
	// Key is the 12-hex-digit content hash of the resolved trace
	// identity (scene, scale, layout, traversal).
	Key string
	// Scale is the resolution divisor this group renders at.
	Scale int
	// TK is the render key the trace provider consumes.
	TK exp.TraceKey
	// Units are the group's design points, in grid config order.
	Units []Unit
}

// Tag renders the group's stable identity, e.g. "t00003-9c41bb07e2aa";
// every NDJSON line of the group is stamped with it, which is what the
// stream merge orders by.
func (g TraceGroup) Tag() string { return fmt.Sprintf("t%05d-%s", g.Index, g.Key) }

// ParseTraceTag recovers the global trace index from a Tag rendering.
func ParseTraceTag(tag string) (int, error) {
	var idx int
	var key string
	if _, err := fmt.Sscanf(tag, "t%05d-%s", &idx, &key); err != nil || idx < 0 {
		return 0, fmt.Errorf("shard: malformed trace tag %q", tag)
	}
	return idx, nil
}

// contentKey hashes a canonical identity rendering to the 12-hex-digit
// short form used in tags and store-style keys.
func contentKey(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:6])
}

// Enumerate expands the grid into trace groups in the canonical order:
// scenes x scales x layouts x traversals as written (trace-major), the
// config list innermost. Empty axes take their defaults — all benchmark
// scenes, the given request scale, the paper's blocked 8x8 layout, each
// scene's reported scan direction. The grid must already have passed
// api.Validate; resolution errors (which Validate would have caught)
// are returned as-is.
func Enumerate(g api.Grid, scale int) ([]TraceGroup, error) {
	sceneList := g.Scenes
	if len(sceneList) == 0 {
		sceneList = scenes.Names()
	}
	if scale < 1 {
		scale = api.DefaultScale
	}
	scales := g.Scales
	if len(scales) == 0 {
		scales = []int{scale}
	}
	layouts := make([]texture.LayoutSpec, 0, 1)
	if len(g.Layouts) == 0 {
		layouts = append(layouts, texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8})
	} else {
		for _, l := range g.Layouts {
			spec, err := l.Spec()
			if err != nil {
				return nil, err
			}
			layouts = append(layouts, spec)
		}
	}
	configs := make([]cache.Config, 0, len(g.Configs))
	for _, wire := range g.Configs {
		cfg, err := wire.Cache()
		if err != nil {
			return nil, err
		}
		configs = append(configs, cfg)
	}

	var groups []TraceGroup
	unitIdx := 0
	for _, scene := range sceneList {
		for _, sc := range scales {
			for _, layout := range layouts {
				// The traversal default is per-scene, so it resolves
				// inside the scene loop.
				traversals := make([]raster.Traversal, 0, 1)
				if len(g.Traversals) == 0 {
					traversals = append(traversals, scenes.DefaultTraversal(scene))
				} else {
					for _, wire := range g.Traversals {
						t, err := wire.Raster()
						if err != nil {
							return nil, err
						}
						traversals = append(traversals, t)
					}
				}
				for _, trav := range traversals {
					tk := exp.TraceKey{Scene: scene, Layout: layout, Traversal: trav}
					traceID := fmt.Sprintf("%s|%d|%+v|%+v", scene, sc, layout, trav)
					grp := TraceGroup{
						Index: len(groups),
						Key:   contentKey(traceID),
						Scale: sc,
						TK:    tk,
						Units: make([]Unit, 0, len(configs)),
					}
					for _, cfg := range configs {
						grp.Units = append(grp.Units, Unit{
							Index:  unitIdx,
							Key:    contentKey(traceID + fmt.Sprintf("|%+v", cfg)),
							Config: cfg,
						})
						unitIdx++
					}
					groups = append(groups, grp)
				}
			}
		}
	}
	return groups, nil
}

// Assigned filters groups down to the slice's share: trace-affine
// modulo assignment, preserving enumeration order. A Slice of {0, 1}
// returns groups unchanged.
func Assigned(groups []TraceGroup, s Slice) []TraceGroup {
	if s.Count <= 1 {
		return groups
	}
	out := make([]TraceGroup, 0, (len(groups)+s.Count-1)/s.Count)
	for _, g := range groups {
		if g.Index%s.Count == s.Index {
			out = append(out, g)
		}
	}
	return out
}
