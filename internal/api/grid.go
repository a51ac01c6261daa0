// Grid and Shard: the wire form of a sharded design-space exploration.
// A grid request names the axes of a cross-product — scenes, scales,
// layouts, traversals and cache configurations — instead of a single
// point; internal/shard enumerates it into a stable order of
// content-addressed work units, and an optional Shard block selects the
// deterministic 1/n slice a worker process runs. The enumeration (and
// therefore unit keys, shard assignment and output order) is part of the
// wire contract: the same grid always produces the same units in the
// same order, which is what lets a coordinator merge worker streams back
// into the byte-identical single-process output.
package api

import (
	"errors"

	"texcache/internal/scenes"
)

// MaxGridUnits caps how many (trace, config) units one grid request may
// enumerate, protecting the server from an accidental combinatorial
// explosion. Shard the work across requests (or machines) instead.
const MaxGridUnits = 65536

// Grid describes a design-space cross-product. Every axis left empty
// takes the usual default: all four benchmark scenes, the request Scale,
// the paper's blocked 8x8 layout, each scene's reported scan direction.
// Configs is the one mandatory axis. Units enumerate trace-major:
// scenes x scales x layouts x traversals in the written order, with the
// config list innermost.
type Grid struct {
	// Scenes are the benchmark scenes to render; empty means all four.
	Scenes []string `json:"scenes,omitempty"`
	// Scales are the resolution divisors; empty means the request Scale
	// (itself defaulting to DefaultScale).
	Scales []int `json:"scales,omitempty"`
	// Layouts are the texture memory representations; empty means the
	// paper's blocked 8x8.
	Layouts []Layout `json:"layouts,omitempty"`
	// Traversals are the screen scan patterns; empty means each scene's
	// reported direction.
	Traversals []Traversal `json:"traversals,omitempty"`
	// Configs are the cache organizations replayed against every trace
	// of the grid; at least one is required.
	Configs []CacheConfig `json:"configs"`
}

// Shard selects the deterministic slice of the grid a worker runs:
// trace groups whose enumeration index is congruent to Index mod Count.
// Assignment is trace-affine — every config of one trace lands on the
// same worker — so each trace is rendered exactly once machine-wide
// even without a shared store.
type Shard struct {
	// Index is the zero-based worker number, 0 <= Index < Count.
	Index int `json:"index"`
	// Count is the total number of workers, >= 1.
	Count int `json:"count"`
}

// unitCount returns how many (trace, config) units the grid enumerates
// once defaults are applied. It stops multiplying once the count passes
// MaxGridUnits, so no product of axis lengths can wrap around to a
// small number and slip under the cap.
func (g Grid) unitCount() int {
	n := len(g.Configs)
	sceneN := len(g.Scenes)
	if sceneN == 0 {
		sceneN = len(scenes.Names())
	}
	for _, axis := range []int{sceneN, len(g.Scales), len(g.Layouts), len(g.Traversals)} {
		if n > MaxGridUnits {
			break
		}
		n *= max(axis, 1)
	}
	return n
}

// validateGrid checks a grid request: the grid axes are exclusive with
// every single-point field, each axis value must be valid on its own,
// and the enumeration must stay under MaxGridUnits.
func validateGrid(r ExperimentRequest) error {
	if len(r.Experiments) > 0 {
		return badRequest("experiments", "experiments and grid requests are mutually exclusive")
	}
	if r.Scene != "" || r.Layout != nil || r.Traversal != nil || len(r.Configs) > 0 {
		return badRequest("grid", "grid replaces the single-point scene/layout/traversal/configs fields; move them onto the grid axes")
	}
	if r.Architecture != nil {
		return badRequest("grid", "grid and architecture requests are mutually exclusive")
	}
	g := *r.Grid
	for i, name := range g.Scenes {
		if err := validScene(name); err != nil {
			var ae *Error
			if errors.As(err, &ae) {
				ae.Field = fieldAt("grid.scenes", i)
			}
			return err
		}
	}
	for i, s := range g.Scales {
		if s < 1 {
			return badRequest(fieldAt("grid.scales", i), "scale %d: must be >= 1 (1 = the paper's full size)", s)
		}
	}
	for i, l := range g.Layouts {
		if err := checkLayout(l, "grid.layouts", i); err != nil {
			return err
		}
	}
	for i, tv := range g.Traversals {
		if err := checkTraversal(tv, "grid.traversals", i); err != nil {
			return err
		}
	}
	if len(g.Configs) == 0 {
		return badRequest("grid.configs", "grid request needs at least one cache configuration")
	}
	if err := checkConfigs(g.Configs, "grid.configs"); err != nil {
		return err
	}
	if n := g.unitCount(); n > MaxGridUnits {
		return badRequest("grid", "grid enumerates %d units (max %d); split it across requests", n, MaxGridUnits)
	}
	return validateShard(r)
}

// validateShard checks the optional shard selection against the grid.
func validateShard(r ExperimentRequest) error {
	s := r.Shard
	if s == nil {
		return nil
	}
	if s.Count < 1 {
		return badRequest("shard.count", "shard count %d: must be >= 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return badRequest("shard.index", "shard index %d: must be in [0, %d)", s.Index, s.Count)
	}
	return nil
}
