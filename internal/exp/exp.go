// Package exp is the experiment harness: one registered experiment per
// table and figure of the paper's evaluation, each regenerating the
// corresponding rows or curve series from a fresh simulation of the four
// benchmark scenes. The cmd/texsim command, the internal/engine worker
// pool and the repository's benchmark suite are thin wrappers over this
// registry.
package exp

import (
	"context"
	"runtime"
	"sort"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/report"
	"texcache/internal/scenes"
	"texcache/internal/texture"
)

// TraceKey identifies one rendered texel address stream: the stream is
// fully determined by (scene, layout, traversal) at a given scale, so a
// key plus the run's scale names a memoizable render.
type TraceKey struct {
	Scene     string
	Layout    texture.LayoutSpec
	Traversal raster.Traversal
}

// TraceProvider supplies rendered traces as address streams. The engine
// implements it with a keyed, single-flight memoizing cache so
// concurrent experiments that need the same (scene, layout, traversal)
// render it exactly once; the stream it hands back may be a materialized
// *cache.Trace or a compact delta-encoded form — replay statistics are
// bit-identical either way.
type TraceProvider interface {
	SceneTrace(ctx context.Context, key TraceKey, scale int) (cache.AddrStream, error)
}

// Config parameterizes an experiment run.
type Config struct {
	// Scale divides the screen and texture resolutions: 1 reproduces the
	// paper's full-size benchmarks, larger powers of two run faster. The
	// qualitative shapes (who wins, where curves knee) are stable in
	// scale; absolute miss rates shift slightly.
	Scale int
	// Scenes restricts the benchmark set; empty means each experiment's
	// own default (usually the scenes the paper shows).
	Scenes []string
	// Traces, when non-nil, supplies rendered traces instead of each
	// experiment rendering privately — the hook through which the engine
	// shares one memoized render across every experiment that needs it.
	Traces TraceProvider
}

// DefaultConfig runs everything at half resolution, a good
// fidelity/runtime tradeoff.
func DefaultConfig() Config { return Config{Scale: 2} }

// EffectiveScale returns the scale clamped to a minimum of 1, the value
// trace keys resolve against.
func (c Config) EffectiveScale() int {
	if c.Scale < 1 {
		return 1
	}
	return c.Scale
}

func (c Config) scale() int { return c.EffectiveScale() }

// sceneList returns the configured scene subset, defaulting to defs.
func (c Config) sceneList(defs ...string) []string {
	if len(c.Scenes) > 0 {
		return c.Scenes
	}
	return defs
}

// Experiment reproduces one paper artifact.
type Experiment struct {
	// ID is the registry key, e.g. "fig5.2" or "table7.1".
	ID string
	// Title describes the artifact as the paper captions it.
	Title string
	// Run executes the experiment, emitting tables, rows and notes
	// through rep. It must honor ctx: long sweeps check for cancellation
	// at least once per rendered frame.
	Run func(ctx context.Context, cfg Config, rep report.Reporter) error
	// Needs, when non-nil, declares the traces the experiment will
	// request for the given configuration, so a batching engine can
	// prewarm its trace cache across workers before Run starts. Purely
	// an optimization hint: Run must work without it.
	Needs func(cfg Config) []TraceKey
}

// UnknownExperimentError reports an experiment ID that is not in the
// registry.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "texcache: unknown experiment " + e.ID
}

var registry = map[string]Experiment{}

// register adds an experiment at package init time.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IDs returns the sorted registry keys.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

// buildScene returns the benchmark scene at the configured scale. It is
// the shared read-only scene for (name, scale): experiments only render
// it, and never modify it.
func buildScene(ctx context.Context, cfg Config, name string) (*scenes.Scene, error) {
	return scenes.Shared(ctx, name, cfg.scale())
}

// traceScene returns the texel address stream of one rendered frame,
// through the configured provider when one is installed (sharing renders
// across experiments) and by rendering privately, on GOMAXPROCS tile
// workers, otherwise.
func traceScene(ctx context.Context, cfg Config, name string, layout texture.LayoutSpec, trav raster.Traversal) (cache.AddrStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Traces != nil {
		return cfg.Traces.SceneTrace(ctx, TraceKey{Scene: name, Layout: layout, Traversal: trav}, cfg.scale())
	}
	s, err := buildScene(ctx, cfg, name)
	if err != nil {
		return nil, err
	}
	tr, _, err := s.TraceParallel(layout, trav, runtime.GOMAXPROCS(0))
	return tr, err
}

// curveSizes are the cache sizes (bytes) of the miss-rate-versus-size
// figures, a log-scale sweep as in the paper's plots.
func curveSizes() []int {
	var out []int
	for s := 1 << 10; s <= 256<<10; s <<= 1 {
		out = append(out, s)
	}
	return out
}

// curveColumns builds the columns of a miss-rate-versus-size table: a
// label column followed by one column per swept cache size.
func curveColumns(label string) []report.Column {
	cols := []report.Column{{Name: label, Head: "%-28s", Cell: "%-28s"}}
	for _, s := range curveSizes() {
		cols = append(cols, report.Column{Name: cache.FormatSize(s), Head: "%9s", Cell: "%8.2f%%"})
	}
	return cols
}

// beginCurve starts a miss-rate-versus-size table.
func beginCurve(rep report.Reporter, id, label string) {
	rep.BeginTable(id, curveColumns(label))
}

// curveRow emits one miss-rate series as percentages.
func curveRow(rep report.Reporter, label string, rates []float64) {
	vals := make([]any, 0, 1+len(rates))
	vals = append(vals, label)
	for _, r := range rates {
		vals = append(vals, 100*r)
	}
	rep.Row(vals...)
}

// blocked8 is the 8x8-texel blocked layout used with 128-byte lines
// throughout Sections 5.3.3-6.
func blocked8() texture.LayoutSpec {
	return texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}
}

// lineForBlock returns the line size matching a square block in bytes.
func lineForBlock(blockW int) int { return blockW * blockW * texture.TexelBytes }
