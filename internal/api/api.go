// Package api defines the versioned request/response vocabulary every
// entry point of the simulator speaks: the cmd/texsim CLI, the
// cmd/texserve experiment server, the cmd/texload load generator and the
// engine all construct and consume the same ExperimentRequest instead of
// carrying parallel flag and Config plumbing. The types are
// JSON-friendly — enums travel as the strings experiment output already
// uses ("blocked", "hilbert", "lru") — and the wire format is versioned:
// Version is echoed back in error bodies and response headers, and
// revisions within a major version are strictly additive (new optional
// fields only), so a v1 client can talk to any later v1 server.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"texcache/internal/arch"
	"texcache/internal/cache"
	"texcache/internal/exp"
	"texcache/internal/prefetch"
	"texcache/internal/raster"
	"texcache/internal/scenes"
	"texcache/internal/texture"
)

// Version is the wire-format major version. Servers echo it in error
// bodies ("v") and in the X-Texcache-Api-Version response header;
// requests may omit it (zero means "current").
const Version = 1

// The values ExperimentRequest.Sweep accepts besides "", all of them
// ignored; see the field.
const (
	SweepGrouped   = "grouped"
	SweepPerConfig = "per-config"
)

// DefaultScale is the resolution divisor a request gets when it leaves
// Scale zero: half resolution, the same fidelity/runtime tradeoff as
// exp.DefaultConfig and the texsim -scale default.
const DefaultScale = 2

// ExperimentRequest is the single description of a unit of simulation
// work. It comes in four kinds, discriminated by Kind():
//
//   - KindExperiments regenerates registered paper experiments:
//     Experiments names the IDs (empty = all), Scenes optionally
//     restricts the benchmark set.
//   - KindSweep renders one (Scene, Scale, Layout, Traversal) texel
//     stream — coalesced with every other request for the same key —
//     and replays Configs against it, answering a custom cache design
//     question without a registered experiment.
//   - KindArchitecture runs that same texel stream through the
//     cycle-level texture-unit pipelines instead: Architecture selects
//     blocking and/or prefetching organizations and their timing, and
//     Configs optionally overrides the cache design point.
//   - KindGrid enumerates the cross-product of Grid's axes into
//     deterministic work units and replays each (trace, config) point,
//     optionally sliced by Shard for multi-process runs.
//
// The zero value of every optional field means "the default": Scale 0
// is DefaultScale, a nil Layout is the paper's 8x8 blocked
// representation, a nil Traversal is the scene's reported scan
// direction, and Workers/RenderWorkers 0 mean GOMAXPROCS.
type ExperimentRequest struct {
	// V is the wire-format version; 0 means the current Version.
	V int `json:"v,omitempty"`
	// Tenant identifies the requesting client for the server's fair
	// queuing; empty is a shared anonymous bucket.
	Tenant string `json:"tenant,omitempty"`

	// Experiments lists registered experiment IDs to run; empty means
	// every registered experiment (when the request is not a sweep).
	Experiments []string `json:"experiments,omitempty"`
	// Scenes restricts the benchmark scenes experiments run over; empty
	// means each experiment's own default set.
	Scenes []string `json:"scenes,omitempty"`

	// Scene names the benchmark to render for a sweep request.
	Scene string `json:"scene,omitempty"`
	// Layout selects the texture memory representation of a sweep
	// request; nil means blocked 8x8, the paper's Section 5.3 standard.
	Layout *Layout `json:"layout,omitempty"`
	// Traversal selects the screen scan pattern of a sweep request; nil
	// means the scene's reported rasterization direction.
	Traversal *Traversal `json:"traversal,omitempty"`
	// Configs are the cache organizations a sweep request replays; an
	// architecture request may also set them to override its default
	// design point.
	Configs []CacheConfig `json:"configs,omitempty"`

	// Architecture, when present, makes the request an architecture
	// comparison: the scene's texel stream runs through the cycle-level
	// texture-unit pipelines instead of plain cache replay.
	Architecture *Architecture `json:"architecture,omitempty"`

	// Grid, when present, makes the request a design-space exploration:
	// the cross-product of its axes is enumerated into deterministic,
	// content-addressed work units (see internal/shard) and every
	// (trace, config) unit is replayed. Exclusive with the single-point
	// scene/layout/traversal/configs fields and with Architecture.
	Grid *Grid `json:"grid,omitempty"`
	// Shard, when present on a grid request, restricts the run to the
	// deterministic 1/Count slice of trace groups assigned to Index, so
	// n worker processes cover the grid exactly once between them.
	Shard *Shard `json:"shard,omitempty"`

	// Scale divides screen and texture resolution; 1 is the paper's full
	// size, 0 means DefaultScale.
	Scale int `json:"scale,omitempty"`
	// Sweep is accepted for compatibility and ignored. It once chose
	// between two replay strategies with bit-identical output; every
	// sweep now takes the grouped path. Validate still accepts only "",
	// SweepGrouped or SweepPerConfig, and ResultIdentity erases it. The
	// field stays because v1 revisions only add fields and texserve
	// rejects unknown ones, so dropping it would turn a v1 client that
	// sends it into a 400.
	Sweep string `json:"sweep,omitempty"`
	// Workers bounds how many experiments run concurrently (0 =
	// GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// RenderWorkers is the tile-parallel rasterization worker count per
	// render (0 = GOMAXPROCS, 1 = serial); traces are bit-identical at
	// any setting.
	RenderWorkers int `json:"render_workers,omitempty"`
}

// RequestKind discriminates the three shapes of ExperimentRequest.
type RequestKind int

const (
	// KindExperiments runs registered paper experiments.
	KindExperiments RequestKind = iota
	// KindSweep renders one scene trace and replays a configuration set.
	KindSweep
	// KindArchitecture runs one scene trace through the cycle-level
	// texture-unit pipelines (blocking vs prefetching).
	KindArchitecture
	// KindGrid enumerates a design-space cross-product into
	// content-addressed units and replays every (trace, config) point,
	// optionally restricted to one shard's slice.
	KindGrid
)

// Kind reports which shape the request has: a Grid block makes it a
// design-space exploration, an Architecture block an architecture
// comparison, any other sweep-only field a sweep.
func (r ExperimentRequest) Kind() RequestKind {
	if r.Grid != nil {
		return KindGrid
	}
	if r.Architecture != nil {
		return KindArchitecture
	}
	if r.Scene != "" || len(r.Configs) > 0 || r.Layout != nil || r.Traversal != nil {
		return KindSweep
	}
	return KindExperiments
}

// Normalized returns a copy with version and scale defaults filled in —
// V 0 becomes Version, Scale 0 becomes DefaultScale — and, for an
// architecture request, the Architecture block's zero fields replaced
// with the paper-point machine (Normalized below). Explicitly invalid
// values (negative scale, bad names) are left for Validate to reject.
func (r ExperimentRequest) Normalized() ExperimentRequest {
	if r.V == 0 {
		r.V = Version
	}
	if r.Scale == 0 {
		r.Scale = DefaultScale
	}
	if r.Architecture != nil {
		a := r.Architecture.Normalized()
		r.Architecture = &a
	}
	return r
}

// ResultIdentity is the canonical byte form of everything the request's
// output depends on: the Normalized request with the execution-only
// fields erased. Tenant routes queuing, Workers/RenderWorkers set
// parallelism and Sweep is ignored — all four are pinned bit-identical
// on the output by the engine's determinism tests, so two requests
// differing only there produce the same stream and share one identity.
// Everything else (scene, scale, layout, traversal, configs,
// architecture, grid, shard) changes the rows and stays in the key.
// JSON field order is the struct declaration, so the encoding is stable.
func (r ExperimentRequest) ResultIdentity() string {
	n := r.Normalized()
	n.Tenant = ""
	n.Workers = 0
	n.RenderWorkers = 0
	n.Sweep = ""
	b, err := json.Marshal(n)
	if err != nil {
		// Plain data fields only; Marshal cannot fail. Keep the error
		// visible rather than silently aliasing keys if that ever changes.
		panic("api: marshaling ExperimentRequest: " + err.Error())
	}
	return string(b)
}

// Layout is the wire form of texture.LayoutSpec: the kind travels as
// the string experiment output uses.
type Layout struct {
	// Kind is "nonblocked", "blocked", "padded", "6d", "williams" or
	// "compressed".
	Kind string `json:"kind"`
	// BlockW is the square block edge in texels (power of two), for the
	// blocked family.
	BlockW int `json:"block_w,omitempty"`
	// PadBlocks is the pad-block count per block row (power of two), for
	// "padded".
	PadBlocks int `json:"pad_blocks,omitempty"`
	// SuperBytes is the coarser blocking size in bytes for "6d".
	SuperBytes int `json:"super_bytes,omitempty"`
	// Ratio is the fixed compression ratio (2 or 4) for "compressed".
	Ratio int `json:"ratio,omitempty"`
}

// layoutKinds maps wire names onto texture layout kinds, the inverse of
// texture.LayoutKind.String.
var layoutKinds = map[string]texture.LayoutKind{
	"nonblocked": texture.NonBlockedKind,
	"blocked":    texture.BlockedKind,
	"padded":     texture.PaddedBlockedKind,
	"6d":         texture.SixDBlockedKind,
	"williams":   texture.WilliamsKind,
	"compressed": texture.CompressedKind,
}

// Spec converts the wire layout to the internal spec. Unknown kinds
// return an error naming the accepted set.
func (l Layout) Spec() (texture.LayoutSpec, error) {
	kind, ok := layoutKinds[l.Kind]
	if !ok {
		return texture.LayoutSpec{}, fmt.Errorf("layout kind %q: want one of %s", l.Kind, strings.Join(layoutKindNames(), ", "))
	}
	return texture.LayoutSpec{
		Kind: kind, BlockW: l.BlockW, PadBlocks: l.PadBlocks,
		SuperBytes: l.SuperBytes, Ratio: l.Ratio,
	}, nil
}

// LayoutFromSpec converts an internal spec to the wire form.
func LayoutFromSpec(s texture.LayoutSpec) Layout {
	return Layout{
		Kind: s.Kind.String(), BlockW: s.BlockW, PadBlocks: s.PadBlocks,
		SuperBytes: s.SuperBytes, Ratio: s.Ratio,
	}
}

// layoutKindNames lists the accepted layout kind strings, sorted by the
// internal enum so error messages are stable.
func layoutKindNames() []string {
	return []string{"nonblocked", "blocked", "padded", "6d", "williams", "compressed"}
}

// Traversal is the wire form of raster.Traversal.
type Traversal struct {
	// Order is "horizontal", "vertical" or "hilbert".
	Order string `json:"order"`
	// TileW and TileH enable static screen tiling when both are set.
	TileW int `json:"tile_w,omitempty"`
	TileH int `json:"tile_h,omitempty"`
}

// traversalOrders maps wire names onto scan orders.
var traversalOrders = map[string]raster.Order{
	"horizontal": raster.RowMajor,
	"vertical":   raster.ColumnMajor,
	"hilbert":    raster.HilbertOrder,
}

// Raster converts the wire traversal to the internal form.
func (t Traversal) Raster() (raster.Traversal, error) {
	order, ok := traversalOrders[t.Order]
	if !ok {
		return raster.Traversal{}, fmt.Errorf("traversal order %q: want horizontal, vertical or hilbert", t.Order)
	}
	return raster.Traversal{Order: order, TileW: t.TileW, TileH: t.TileH}, nil
}

// Architecture pipeline selections, the wire form of arch.Pipeline plus
// the "both" comparison default.
const (
	// PipelineBlocking runs only the blocking baseline.
	PipelineBlocking = "blocking"
	// PipelinePrefetch runs only the prefetching pipeline.
	PipelinePrefetch = "prefetch"
	// PipelineBoth runs both organizations over one shared timeline; the
	// default when the field is empty.
	PipelineBoth = "both"
)

// Architecture is the wire form of the cycle-level texture-unit
// comparison: which pipeline organizations to run and their timing
// parameters. Every zero field means the paper-point default
// (arch.Default); Normalized makes the defaulting explicit on the wire.
type Architecture struct {
	// Pipeline is "blocking", "prefetch" or "both"; empty means both.
	Pipeline string `json:"pipeline,omitempty"`
	// FragmentFIFO is the fragment queue depth in fragments (0 = the
	// paper point, 64). To model a no-FIFO prefetch machine explicitly,
	// select the blocking pipeline instead — its timing is identical.
	FragmentFIFO int `json:"fragment_fifo,omitempty"`
	// RequestFIFO bounds outstanding fill requests (0 = 32).
	RequestFIFO int `json:"request_fifo,omitempty"`
	// ReorderBuffer bounds fills awaiting consumption (0 = 32).
	ReorderBuffer int `json:"reorder_buffer,omitempty"`
	// ResultFIFO is the output queue depth in fragments (0 = 8).
	ResultFIFO int `json:"result_fifo,omitempty"`
	// TexelsPerCycle is the cache read rate (0 = 4).
	TexelsPerCycle int `json:"texels_per_cycle,omitempty"`
	// TexelsPerFragment is the filter cost (0 = 8, trilinear).
	TexelsPerFragment int `json:"texels_per_fragment,omitempty"`
	// FillLatency is the fill round-trip start in cycles (0 = 100).
	FillLatency int `json:"fill_latency,omitempty"`
	// FillOccupancy is the line transfer time in cycles (0 = 4).
	FillOccupancy int `json:"fill_occupancy,omitempty"`
}

// Normalized returns a copy with every zero field replaced by the
// paper-point default, so a served request and its echo agree on the
// machine that actually ran.
func (a Architecture) Normalized() Architecture {
	if a.Pipeline == "" {
		a.Pipeline = PipelineBoth
	}
	if a.FragmentFIFO == 0 {
		a.FragmentFIFO = arch.DefaultFragmentFIFO
	}
	if a.RequestFIFO == 0 {
		a.RequestFIFO = arch.DefaultRequestFIFO
	}
	if a.ReorderBuffer == 0 {
		a.ReorderBuffer = arch.DefaultReorderBuffer
	}
	if a.ResultFIFO == 0 {
		a.ResultFIFO = arch.DefaultResultFIFO
	}
	if a.TexelsPerCycle == 0 {
		a.TexelsPerCycle = arch.DefaultTexelsPerCycle
	}
	if a.TexelsPerFragment == 0 {
		a.TexelsPerFragment = arch.DefaultTexelsPerFragment
	}
	if a.FillLatency == 0 {
		a.FillLatency = arch.DefaultFillLatency
	}
	if a.FillOccupancy == 0 {
		a.FillOccupancy = arch.DefaultFillOccupancy
	}
	return a
}

// pipelines resolves the wire pipeline selection onto the arch enum.
func (a Architecture) pipelines() ([]arch.Pipeline, error) {
	switch a.Pipeline {
	case "", PipelineBoth:
		return []arch.Pipeline{arch.Blocking, arch.Prefetch}, nil
	case PipelineBlocking:
		return []arch.Pipeline{arch.Blocking}, nil
	case PipelinePrefetch:
		return []arch.Pipeline{arch.Prefetch}, nil
	default:
		return nil, fmt.Errorf("pipeline %q: want %q, %q or %q", a.Pipeline,
			PipelineBlocking, PipelinePrefetch, PipelineBoth)
	}
}

// archConfig assembles the arch configuration for one cache design
// point and pipeline. Call only after Validate.
func (a Architecture) archConfig(c cache.Config, p arch.Pipeline) arch.Config {
	a = a.Normalized()
	return arch.Config{
		Cache:             c,
		Pipeline:          p,
		FragmentFIFO:      a.FragmentFIFO,
		RequestFIFO:       a.RequestFIFO,
		ReorderBuffer:     a.ReorderBuffer,
		ResultFIFO:        a.ResultFIFO,
		TexelsPerCycle:    a.TexelsPerCycle,
		TexelsPerFragment: a.TexelsPerFragment,
		FillLatency:       a.FillLatency,
		FillOccupancy:     a.FillOccupancy,
	}
}

// DefaultArchCache is the cache design point an architecture request
// gets when it names no Configs: the paper's 32KB 2-way 128B-line
// texture cache.
func DefaultArchCache() cache.Config {
	return cache.Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2}
}

// ArchCacheConfigs resolves the cache design points of an architecture
// request: Configs when given, the paper point otherwise. Call only
// after Validate.
func (r ExperimentRequest) ArchCacheConfigs() []cache.Config {
	if len(r.Configs) == 0 {
		return []cache.Config{DefaultArchCache()}
	}
	return r.CacheConfigs()
}

// ArchConfigs resolves the full machine list of an architecture
// request: the cross product of its cache design points and selected
// pipelines, in report order (configs outer, pipelines inner). Call
// only after Validate.
func (r ExperimentRequest) ArchConfigs() []arch.Config {
	if r.Architecture == nil {
		return nil
	}
	pipes, _ := r.Architecture.pipelines()
	var out []arch.Config
	for _, c := range r.ArchCacheConfigs() {
		for _, p := range pipes {
			out = append(out, r.Architecture.archConfig(c, p))
		}
	}
	return out
}

// CacheConfig is the wire form of cache.Config.
type CacheConfig struct {
	// SizeBytes is the total capacity (power of two).
	SizeBytes int `json:"size_bytes"`
	// LineBytes is the line size (power of two, >= 4).
	LineBytes int `json:"line_bytes"`
	// Ways is the associativity: 1 direct-mapped, N-way, 0 fully
	// associative.
	Ways int `json:"ways,omitempty"`
	// Policy is "lru" (default), "fifo" or "random".
	Policy string `json:"policy,omitempty"`
}

// cachePolicies maps wire names onto replacement policies.
var cachePolicies = map[string]cache.Replacement{
	"":       cache.LRU,
	"lru":    cache.LRU,
	"fifo":   cache.FIFO,
	"random": cache.Random,
}

// Cache converts the wire configuration to the internal form.
func (c CacheConfig) Cache() (cache.Config, error) {
	policy, ok := cachePolicies[c.Policy]
	if !ok {
		return cache.Config{}, fmt.Errorf("cache policy %q: want lru, fifo or random", c.Policy)
	}
	return cache.Config{
		SizeBytes: c.SizeBytes, LineBytes: c.LineBytes,
		Ways: c.Ways, Policy: policy,
	}, nil
}

// ExpConfig maps the request onto the experiment-harness configuration.
// The trace provider is a runtime concern and stays nil; the engine (or
// the server's shared cache) fills it in.
func (r ExperimentRequest) ExpConfig() exp.Config {
	return exp.Config{
		Scale:         r.Scale,
		Scenes:        r.Scenes,
		RenderWorkers: r.RenderWorkers,
	}
}

// LayoutSpec resolves the sweep request's layout, defaulting to the
// paper's 8x8 blocked representation. Call only after Validate.
func (r ExperimentRequest) LayoutSpec() texture.LayoutSpec {
	if r.Layout == nil {
		return texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}
	}
	spec, _ := r.Layout.Spec()
	return spec
}

// RasterTraversal resolves the sweep request's traversal, defaulting to
// the scene's reported scan direction. Call only after Validate.
func (r ExperimentRequest) RasterTraversal() raster.Traversal {
	if r.Traversal == nil {
		return exp.DefaultTraversalFor(r.Scene)
	}
	trav, _ := r.Traversal.Raster()
	return trav
}

// CacheConfigs resolves the sweep request's cache configurations. Call
// only after Validate.
func (r ExperimentRequest) CacheConfigs() []cache.Config {
	out := make([]cache.Config, len(r.Configs))
	for i, c := range r.Configs {
		out[i], _ = c.Cache()
	}
	return out
}

// Error codes. Codes are wire-stable; messages are not.
const (
	// CodeBadRequest marks a request the server could not parse or that
	// failed validation.
	CodeBadRequest = "bad_request"
	// CodeUnknownExperiment marks an experiment ID outside the registry.
	CodeUnknownExperiment = "unknown_experiment"
	// CodeUnknownScene marks a scene name outside the benchmark set.
	CodeUnknownScene = "unknown_scene"
	// CodeSaturated marks a request rejected by queue-depth backpressure;
	// retry after the Retry-After interval.
	CodeSaturated = "saturated"
	// CodeInternal marks a server-side failure.
	CodeInternal = "internal"
)

// Error is the typed error every validation and serving path returns;
// it doubles as the JSON error body ("v", "code", "error", "field").
type Error struct {
	// V echoes the wire-format version.
	V int `json:"v"`
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message describes what was wrong, for humans.
	Message string `json:"error"`
	// Field names the request field at fault, when one is identifiable.
	Field string `json:"field,omitempty"`

	cause error
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Field != "" {
		return "api: " + e.Field + ": " + e.Message
	}
	return "api: " + e.Message
}

// Unwrap exposes the underlying typed error (for example
// *exp.UnknownExperimentError or *scenes.UnknownSceneError), so callers
// keyed to the pre-API error types keep working through errors.As.
func (e *Error) Unwrap() error { return e.cause }

// HTTPStatus maps the error code onto the status the server responds
// with.
func (e *Error) HTTPStatus() int {
	switch e.Code {
	case CodeUnknownExperiment, CodeUnknownScene:
		return http.StatusNotFound
	case CodeSaturated:
		return http.StatusTooManyRequests
	case CodeInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// badRequest builds a field-level validation error.
func badRequest(field, format string, args ...any) *Error {
	return &Error{V: Version, Code: CodeBadRequest, Field: field, Message: fmt.Sprintf(format, args...)}
}

// Errorf builds a typed error with the given code.
func Errorf(code, format string, args ...any) *Error {
	return &Error{V: Version, Code: code, Message: fmt.Sprintf(format, args...)}
}

// WrapError converts any error into the typed wire form, passing
// existing *Error values through and classifying the repository's typed
// errors onto their codes.
func WrapError(err error) *Error {
	var ae *Error
	if errors.As(err, &ae) {
		return ae
	}
	var (
		ue *exp.UnknownExperimentError
		se *scenes.UnknownSceneError
		ac *arch.ConfigError
		pc *prefetch.ConfigError
		cc *cache.ConfigError
	)
	switch {
	case errors.As(err, &ue):
		return &Error{V: Version, Code: CodeUnknownExperiment, Field: "experiments", Message: err.Error(), cause: err}
	case errors.As(err, &se):
		return &Error{V: Version, Code: CodeUnknownScene, Field: "scene", Message: err.Error(), cause: err}
	case errors.As(err, &ac):
		return &Error{V: Version, Code: CodeBadRequest, Field: "architecture." + ac.Field, Message: err.Error(), cause: err}
	case errors.As(err, &pc):
		return &Error{V: Version, Code: CodeBadRequest, Field: pc.Field, Message: err.Error(), cause: err}
	case errors.As(err, &cc):
		return &Error{V: Version, Code: CodeBadRequest, Field: "configs", Message: err.Error(), cause: err}
	default:
		return &Error{V: Version, Code: CodeInternal, Message: err.Error(), cause: err}
	}
}

// Validate checks the request as given (apply Normalized first when
// zero fields should mean defaults) and returns nil or an *Error whose
// code and field say what was wrong. It is the one validation path:
// texsim, texserve and the library facade all call it, so a request
// accepted anywhere is accepted everywhere.
func Validate(r ExperimentRequest) error {
	if r.V != 0 && r.V != Version {
		return badRequest("v", "unsupported api version %d (this build speaks %d)", r.V, Version)
	}
	if r.Scale < 1 {
		return badRequest("scale", "scale %d: must be >= 1 (1 = the paper's full size)", r.Scale)
	}
	if r.Workers < 0 {
		return badRequest("workers", "workers %d: must be >= 0 (0 = GOMAXPROCS)", r.Workers)
	}
	if r.RenderWorkers < 0 {
		return badRequest("render_workers", "render workers %d: must be >= 0 (0 = GOMAXPROCS)", r.RenderWorkers)
	}
	switch r.Sweep {
	case "", SweepGrouped, SweepPerConfig:
	default:
		return badRequest("sweep", "sweep mode %q: want %q or %q", r.Sweep, SweepGrouped, SweepPerConfig)
	}
	for _, name := range r.Scenes {
		if err := validScene(name); err != nil {
			return err
		}
	}
	if r.Shard != nil && r.Grid == nil {
		return badRequest("shard", "shard selection requires a grid request")
	}
	switch r.Kind() {
	case KindGrid:
		return validateGrid(r)
	case KindArchitecture:
		return validateArchitecture(r)
	case KindSweep:
		return validateSweep(r)
	}
	for _, id := range r.Experiments {
		if _, ok := exp.Lookup(id); !ok {
			cause := &exp.UnknownExperimentError{ID: id}
			return &Error{V: Version, Code: CodeUnknownExperiment, Field: "experiments",
				Message: cause.Error(), cause: cause}
		}
	}
	return nil
}

// validateSweep checks the sweep-only fields.
func validateSweep(r ExperimentRequest) error {
	if len(r.Experiments) > 0 {
		return badRequest("experiments", "experiments and sweep fields (scene/layout/traversal/configs) are mutually exclusive")
	}
	if r.Scene == "" {
		return badRequest("scene", "sweep request needs a scene (one of %s)", strings.Join(scenes.Names(), ", "))
	}
	if err := validScene(r.Scene); err != nil {
		return err
	}
	if len(r.Configs) == 0 {
		return badRequest("configs", "sweep request needs at least one cache configuration")
	}
	if r.Layout != nil {
		spec, err := r.Layout.Spec()
		if err != nil {
			return badRequest("layout", "%v", err)
		}
		if err := spec.Validate(); err != nil {
			return badRequest("layout", "%v", err)
		}
	}
	if r.Traversal != nil {
		if _, err := r.Traversal.Raster(); err != nil {
			return badRequest("traversal", "%v", err)
		}
	}
	for i, wire := range r.Configs {
		cfg, err := wire.Cache()
		if err != nil {
			return badRequest(fmt.Sprintf("configs[%d]", i), "%v", err)
		}
		if err := cfg.Validate(); err != nil {
			return badRequest(fmt.Sprintf("configs[%d]", i), "%v", err)
		}
	}
	return nil
}

// validateArchitecture checks an architecture request: the shared
// scene/layout/traversal/configs rules of a sweep (configs optional —
// the paper design point stands in), plus the Architecture block
// itself, whose field errors surface as "architecture.<field>".
func validateArchitecture(r ExperimentRequest) error {
	if len(r.Experiments) > 0 {
		return badRequest("experiments", "experiments and architecture requests are mutually exclusive")
	}
	if r.Scene == "" {
		return badRequest("scene", "architecture request needs a scene (one of %s)", strings.Join(scenes.Names(), ", "))
	}
	if err := validScene(r.Scene); err != nil {
		return err
	}
	if r.Layout != nil {
		spec, err := r.Layout.Spec()
		if err != nil {
			return badRequest("layout", "%v", err)
		}
		if err := spec.Validate(); err != nil {
			return badRequest("layout", "%v", err)
		}
	}
	if r.Traversal != nil {
		if _, err := r.Traversal.Raster(); err != nil {
			return badRequest("traversal", "%v", err)
		}
	}
	for i, wire := range r.Configs {
		cfg, err := wire.Cache()
		if err != nil {
			return badRequest(fmt.Sprintf("configs[%d]", i), "%v", err)
		}
		if err := cfg.Validate(); err != nil {
			return badRequest(fmt.Sprintf("configs[%d]", i), "%v", err)
		}
	}
	a := *r.Architecture
	if _, err := a.pipelines(); err != nil {
		return badRequest("architecture.pipeline", "%v", err)
	}
	// One arch.Validate per cache design point covers every machine the
	// request will run; the typed field comes back out on the wire as
	// "architecture.<field>".
	for _, c := range r.ArchCacheConfigs() {
		if err := a.archConfig(c, arch.Prefetch).Validate(); err != nil {
			var ce *arch.ConfigError
			if errors.As(err, &ce) {
				return badRequest("architecture."+ce.Field, "%s", ce.Reason)
			}
			return badRequest("architecture", "%v", err)
		}
	}
	return nil
}

// validScene checks a scene name against the benchmark set.
func validScene(name string) error {
	for _, n := range scenes.Names() {
		if n == name {
			return nil
		}
	}
	cause := &scenes.UnknownSceneError{Name: name}
	return &Error{V: Version, Code: CodeUnknownScene, Field: "scene",
		Message: cause.Error() + " (want " + strings.Join(scenes.Names(), ", ") + ")", cause: cause}
}
