// Package texcache is a from-scratch reproduction of the texture-cache
// architecture study of Hakura & Gupta, "The Design and Analysis of a
// Cache Architecture for Texture Mapping" (ISCA 1997).
//
// The package bundles four subsystems behind one import:
//
//   - A software 3D graphics pipeline (geometry transform, frustum
//     clipping, vertex lighting, perspective-correct rasterization with
//     horizontal / vertical / tiled traversal, OpenGL-style Mip Mapped
//     trilinear texturing, Z-buffering, PNG framebuffer output).
//   - The texture memory representations of Sections 5-6: Williams
//     component-separated, base nonblocked, blocked/tiled, padded
//     blocked and 6D blocked, with exact shift-and-add addressing.
//   - A trace-driven cache simulator: set-associative LRU with
//     cold/capacity/conflict classification, plus a one-pass LRU
//     stack-distance profiler yielding fully-associative miss rates at
//     every cache size.
//   - The paper's four benchmark scenes (Flight, Town, Guitar, Goblet),
//     synthesized to the published Table 4.1 characteristics, and the
//     Section 7 machine model converting miss rates into memory
//     bandwidth and rendering performance.
//
// # Quick start
//
// Render a scene once, then replay its texel address trace against any
// number of cache organizations:
//
//	scene, err := texcache.SceneByNameChecked("goblet", 2) // half resolution
//	if err != nil {
//	    log.Fatal(err) // *texcache.UnknownSceneError
//	}
//	trace, renderer, _ := scene.Trace(
//	    texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8},
//	    scene.DefaultTraversal())
//	c, err := texcache.NewClassifyingCache(texcache.CacheConfig{
//	    SizeBytes: 32 << 10, LineBytes: 128, Ways: 2})
//	if err != nil {
//	    var ce *texcache.ConfigError // what was wrong, and with which config
//	    _ = errors.As(err, &ce)
//	    log.Fatal(err)
//	}
//	texcache.ReplayStream(trace, c.Sink())
//	fmt.Printf("miss rate %.2f%%\n", 100*c.Stats().MissRate())
//	_ = renderer // framebuffer, frame statistics
//
// A whole sweep costs one pass: SimulateConfigsGroupedStream answers
// every LRU configuration sharing a line size from a single stack
// walk of the trace, falling back to one cache per configuration for
// other policies within the same pass, and ReplayStreamConcurrent
// feeds any set of sinks at once, each on its own goroutine. Both are
// bit-identical to serial replay.
//
// Every table and figure of the paper's evaluation is regenerated by a
// registered experiment. Run executes one ExperimentRequest — a batch of
// registered experiments, a custom configuration sweep, an architecture
// comparison or a design-space grid — rendering each needed (scene,
// layout, traversal) stream exactly once across the batch and streaming
// results as units finish:
//
//	ctx := context.Background()
//	results, err := texcache.Run(ctx,
//	    texcache.ExperimentRequest{Scale: 2}, // zero request = all experiments
//	    texcache.WithWorkers(4))
//	if err != nil {
//	    log.Fatal(err)
//	}
//	for r := range results {
//	    fmt.Printf("== %s (%v) ==\n%s", r.ID, r.Err, r.Output)
//	}
//
// See cmd/texsim for the command-line form.
package texcache

import (
	"context"
	"io"
	"net"
	"net/http"

	"texcache/internal/api"
	"texcache/internal/arch"
	"texcache/internal/banks"
	"texcache/internal/cache"
	"texcache/internal/dram"
	"texcache/internal/engine"
	"texcache/internal/exp"
	"texcache/internal/geom"
	"texcache/internal/gl"
	"texcache/internal/obs"
	"texcache/internal/parallel"
	"texcache/internal/perf"
	"texcache/internal/pipeline"
	"texcache/internal/prefetch"
	"texcache/internal/raster"
	"texcache/internal/report"
	"texcache/internal/scenes"
	"texcache/internal/shard"
	"texcache/internal/texture"
	"texcache/internal/trace"
	"texcache/internal/vecmath"
)

// Linear algebra.
type (
	// Vec2 is a 2-component vector (texture coordinates).
	Vec2 = vecmath.Vec2
	// Vec3 is a 3-component vector (positions, normals, colors).
	Vec3 = vecmath.Vec3
	// Mat4 is a 4x4 row-major transform matrix.
	Mat4 = vecmath.Mat4
)

// Geometry.
type (
	// Vertex is a triangle corner with position, normal, UV and color.
	Vertex = geom.Vertex
	// Triangle is the rendering primitive.
	Triangle = geom.Triangle
	// Mesh is an ordered triangle list.
	Mesh = geom.Mesh
)

// Textures and memory representations.
type (
	// Image is a power-of-two RGBA8 texture image.
	Image = texture.Image
	// Texel is one RGBA8 texture pixel.
	Texel = texture.Texel
	// MipMap is the image pyramid of Williams' pyramidal parametrics.
	MipMap = texture.MipMap
	// LayoutSpec selects and parameterizes a texture memory
	// representation.
	LayoutSpec = texture.LayoutSpec
	// Layout maps texel coordinates to simulated memory addresses.
	Layout = texture.Layout
	// Arena is the bump allocator placing textures in simulated memory.
	Arena = texture.Arena
	// TextureObject binds a Mip Map to its memory layout.
	TextureObject = texture.Texture
	// AccessEvent describes one texel fetch for statistics collectors.
	AccessEvent = texture.AccessEvent
)

// Texture representation kinds (Sections 5-6 of the paper).
const (
	// NonBlocked is the base row-major representation (Section 5.2).
	NonBlocked = texture.NonBlockedKind
	// Blocked stores square texel blocks consecutively (Section 5.3).
	Blocked = texture.BlockedKind
	// PaddedBlocked adds pad blocks per block row (Section 6.2).
	PaddedBlocked = texture.PaddedBlockedKind
	// SixDBlocked adds a cache-sized second blocking level (Section 6.2).
	SixDBlocked = texture.SixDBlockedKind
	// Williams is the component-separated original Mip Map layout
	// (Section 5.1).
	Williams = texture.WilliamsKind
	// Compressed is blocked layout over fixed-ratio compressed memory
	// (Section 8 future work).
	Compressed = texture.CompressedKind
)

// Texture coordinate wrap modes.
const (
	// Repeat tiles the texture (the paper's mode).
	Repeat = texture.Repeat
	// ClampToEdge pins coordinates to the border texels.
	ClampToEdge = texture.ClampToEdge
)

// Rasterization.
type (
	// Traversal selects the screen scanning pattern.
	Traversal = raster.Traversal
	// Order is the scan direction (Horizontal or Vertical).
	Order = raster.Order
	// Fragment is a covered pixel with interpolated attributes.
	Fragment = raster.Fragment
)

// Scan directions.
const (
	// Horizontal scans x fastest (row major).
	Horizontal = raster.RowMajor
	// Vertical scans y fastest (column major).
	Vertical = raster.ColumnMajor
	// Hilbert follows a Peano-Hilbert space-filling path (footnote 1).
	Hilbert = raster.HilbertOrder
)

// Pipeline.
type (
	// Renderer drives the full graphics pipeline for one frame.
	Renderer = pipeline.Renderer
	// Camera bundles view and projection transforms.
	Camera = pipeline.Camera
	// DirectionalLight lights vertices diffusely.
	DirectionalLight = pipeline.DirectionalLight
)

// Cache simulation.
type (
	// CacheConfig is a cache organization (size, line, associativity).
	CacheConfig = cache.Config
	// CacheStats reports accesses and classified misses.
	CacheStats = cache.Stats
	// Cache is the set-associative LRU simulator.
	Cache = cache.Cache
	// Trace is a recorded texel address stream.
	Trace = cache.Trace
	// AddrStream is a read-only texel address stream consumable in
	// ordered blocks; Trace and CompactTrace both implement it, and the
	// stream replay functions accept either.
	AddrStream = cache.AddrStream
	// AddrCursor iterates an address stream block by block.
	AddrCursor = cache.Cursor
	// StackDist profiles LRU stack distances (working-set curves).
	StackDist = cache.StackDist
	// Sink consumes texel addresses.
	Sink = cache.Sink
	// BulkSink is a Sink that also absorbs whole address runs at once.
	BulkSink = cache.BulkSink
	// Replacement selects the victim policy (LRU, FIFO, Random).
	Replacement = cache.Replacement
	// SectoredCache fetches sub-blocks of a line on demand.
	SectoredCache = cache.Sectored
	// ConfigError reports an invalid cache configuration; every
	// constructor and validation path returns this type (via errors.As).
	ConfigError = cache.ConfigError
)

// Replacement policies.
const (
	// ReplaceLRU is the paper's least-recently-used policy.
	ReplaceLRU = cache.LRU
	// ReplaceFIFO evicts the oldest fill.
	ReplaceFIFO = cache.FIFO
	// ReplaceRandom evicts pseudo-randomly (deterministic).
	ReplaceRandom = cache.Random
)

// NewSectoredCache returns a sectored (sub-block) cache.
func NewSectoredCache(cfg CacheConfig, sectorBytes int) (*SectoredCache, error) {
	return cache.NewSectored(cfg, sectorBytes)
}

// Machine model, memory system and banking.
type (
	// PerfModel is the Section 7 machine model.
	PerfModel = perf.Model
	// BankAnalyzer measures SRAM bank conflicts (Section 7.1.2).
	BankAnalyzer = banks.Analyzer
	// DRAMTiming describes the SDRAM part behind the cache (Section 3.2).
	DRAMTiming = dram.Timing
	// DRAMSim replays cache fills against open-row bank state.
	DRAMSim = dram.Sim
	// PrefetchConfig describes the Section 7.1.1 dual-rasterizer unit.
	PrefetchConfig = prefetch.Config
	// PrefetchResult is the timing outcome of a prefetched frame.
	PrefetchResult = prefetch.Result
)

// DefaultDRAM returns the reference late-90s SDRAM: 100 MHz, 64-bit bus,
// 2 KB pages, 4 banks, 3-3-3 timing.
func DefaultDRAM() DRAMTiming { return dram.Default() }

// NewDRAMSim returns a DRAM simulator for the part and cache line size.
func NewDRAMSim(t DRAMTiming, lineBytes int) (*DRAMSim, error) {
	return dram.NewSim(t, lineBytes)
}

// The cycle-level texture-unit architecture model (Igehy, Eldridge &
// Proudfoot 1998): a prefetching pipeline — fragment FIFO, miss-request
// FIFO, reorder buffer, result FIFO, bounded in-flight fill window —
// and a blocking baseline through the same cycle loop.
type (
	// ArchConfig parameterizes one machine: the cache organization, the
	// pipeline kind and the queue depths and memory timing.
	ArchConfig = arch.Config
	// ArchResult is the cycle accounting of one simulated machine.
	ArchResult = arch.Result
	// ArchTimeline is a cache replay captured once (the miss positions)
	// and re-timeable under any number of ArchConfig timing points.
	ArchTimeline = arch.Timeline
	// ArchPipeline selects the blocking or prefetching machine.
	ArchPipeline = arch.Pipeline
	// ArchConfigError reports an invalid architecture configuration,
	// naming the field (via errors.As).
	ArchConfigError = arch.ConfigError
)

// Architecture pipeline kinds.
const (
	// ArchBlocking stalls the pipeline for the full memory latency on
	// every miss.
	ArchBlocking = arch.Blocking
	// ArchPrefetch issues fills at tag-check time and hides them behind
	// the fragment FIFO.
	ArchPrefetch = arch.Prefetch
)

// DefaultArch returns the paper-default machine around the given cache:
// 64-fragment FIFO, 32-entry request FIFO and reorder buffer, 100-cycle
// fill latency.
func DefaultArch(c CacheConfig, p ArchPipeline) ArchConfig { return arch.Default(c, p) }

// SimulateArch replays a texel stream through the cycle-level machine.
func SimulateArch(cfg ArchConfig, s AddrStream) (ArchResult, error) {
	return arch.Simulate(cfg, s)
}

// NewArchTimeline captures the cache behaviour of a stream once; its
// Simulate method then reruns only the timing recurrence, so a latency
// or FIFO-depth sweep costs one cache replay.
func NewArchTimeline(c CacheConfig, s AddrStream) (*ArchTimeline, error) {
	return arch.NewTimeline(c, s)
}

// Compact traces and the persistent trace store.
type (
	// CompactTrace is a delta-encoded texel address trace, typically
	// several times smaller than the materialized Trace it was built
	// from; it implements AddrStream, so the stream replay functions
	// consume it without decoding it into memory.
	CompactTrace = trace.Compact
	// TraceStore is a content-addressed on-disk directory of compact
	// traces with atomic writes and checksummed, verify-on-load entries.
	TraceStore = trace.Store
	// TraceStoreKey identifies one stored address stream (scene, scale,
	// layout, traversal, options, code version).
	TraceStoreKey = trace.Key
)

// CompactTraceFromTrace delta-encodes a materialized trace.
func CompactTraceFromTrace(t *Trace) *CompactTrace { return trace.CompactFromTrace(t) }

// OpenTraceStore returns a persistent trace store rooted at dir,
// creating the directory if needed.
func OpenTraceStore(dir string) (*TraceStore, error) { return trace.Open(dir) }

// ReplayStream feeds the whole address stream to each sink in turn;
// statistics are bit-identical whatever the stream's representation.
func ReplayStream(s AddrStream, sinks ...Sink) { cache.ReplayStream(s, sinks...) }

// ReplayStreamConcurrent feeds the whole address stream to every sink
// concurrently, one sink per goroutine.
func ReplayStreamConcurrent(ctx context.Context, s AddrStream, sinks ...Sink) error {
	return cache.ReplayStreamConcurrent(ctx, s, sinks...)
}

// SimulateConfigsGroupedStream answers a whole configuration sweep over
// an address stream from one grouped stack simulation per distinct line
// size, bit-identical to per-configuration replay.
func SimulateConfigsGroupedStream(ctx context.Context, s AddrStream, cfgs []CacheConfig) ([]CacheStats, error) {
	return cache.SimulateConfigsGroupedStream(ctx, s, cfgs)
}

// Immediate-mode command stream (the Section 4.1 GL-trace component).
type (
	// GLAPI is the immediate-mode command set.
	GLAPI = gl.API
	// GLContext executes commands on the software pipeline.
	GLContext = gl.Context
	// GLRecorder serializes commands as a text trace.
	GLRecorder = gl.Recorder
)

// NewGLContext returns an immediate-mode context drawing into r.
func NewGLContext(r *Renderer, cam Camera) *GLContext { return gl.NewContext(r, cam) }

// NewGLRecorder returns a command-trace recorder writing to w.
func NewGLRecorder(w io.Writer) *GLRecorder { return gl.NewRecorder(w) }

// GLTee fans immediate-mode calls out to several APIs (render while
// recording, the gldebug arrangement).
func GLTee(apis ...GLAPI) GLAPI { return gl.Tee(apis...) }

// GLReplay drives dst from a recorded command trace.
func GLReplay(src io.Reader, dst GLAPI) error { return gl.Replay(src, dst) }

// EmitMesh issues a mesh through an API as immediate-mode calls.
func EmitMesh(api GLAPI, m *Mesh) { gl.EmitMesh(api, m) }

// Parallel fragment generators (Section 8 future work).
type (
	// Partition is an image-space work distribution across fragment
	// generators.
	Partition = parallel.Partition
	// ParallelResult summarizes a multi-generator frame.
	ParallelResult = parallel.Result
)

// Image-space partitions.
const (
	// ScanlineInterleave deals scanlines round-robin.
	ScanlineInterleave = parallel.ScanlineInterleave
	// StripPartition assigns contiguous horizontal bands.
	StripPartition = parallel.StripPartition
	// TileInterleave deals fixed-size screen tiles round-robin.
	TileInterleave = parallel.TileInterleave
)

// RunParallel renders the scene across n fragment generators with
// private caches, under the given image-space partition.
func RunParallel(s *Scene, p Partition, n, tile int, layout LayoutSpec, cfg CacheConfig) (ParallelResult, error) {
	return parallel.Run(s, p, n, tile, layout, cfg)
}

// Scenes.
type (
	// Scene is one of the four synthesized benchmarks.
	Scene = scenes.Scene
	// RenderOptions selects layout, traversal and instrumentation.
	RenderOptions = scenes.RenderOptions
)

// Structured experiment output.
type (
	// Reporter receives experiment output as tables, rows and notes
	// instead of raw text; TextReporter and JSONReporter are the stock
	// renderings.
	Reporter = report.Reporter
	// ReportColumn describes one table column (header label plus the fmt
	// verbs the text rendering uses).
	ReportColumn = report.Column
	// TextReporter renders reports as the classic fixed-width tables.
	TextReporter = report.Text
	// JSONReporter renders reports as newline-delimited JSON objects.
	JSONReporter = report.JSON
	// ReportRecording captures a report stream for later replay into any
	// Reporter; Run returns one per result.
	ReportRecording = report.Recording
)

// NewTextReporter returns a Reporter writing fixed-width text to w.
func NewTextReporter(w io.Writer) *TextReporter { return report.NewText(w) }

// NewJSONReporter returns a Reporter writing NDJSON to w.
func NewJSONReporter(w io.Writer) *JSONReporter { return report.NewJSON(w) }

// The request-centric API (internal/api): one versioned, JSON-friendly
// struct describes a unit of work, and texsim, texserve, texload and
// this facade all construct and consume it.
type (
	// ExperimentRequest is the single description of a unit of work:
	// either a batch of registered experiments or a custom cache sweep
	// over one rendered scene. See Run.
	ExperimentRequest = api.ExperimentRequest
	// RequestLayout is the wire form of a texture memory layout.
	RequestLayout = api.Layout
	// RequestTraversal is the wire form of a screen traversal.
	RequestTraversal = api.Traversal
	// RequestCacheConfig is the wire form of a cache organization.
	RequestCacheConfig = api.CacheConfig
	// RequestArchitecture is the wire form of a cycle-level architecture
	// comparison: set ExperimentRequest.Architecture to make the request
	// architecture-kind.
	RequestArchitecture = api.Architecture
	// RequestGrid is the wire form of a design-space cross-product: set
	// ExperimentRequest.Grid to make the request grid-kind. Its
	// enumeration order and content-addressed unit keys are part of the
	// wire contract (see internal/shard).
	RequestGrid = api.Grid
	// RequestShard selects the deterministic 1/Count slice of a grid a
	// worker process runs; trace-affine, so every config of one trace
	// lands on the same worker.
	RequestShard = api.Shard
	// RequestError is the typed error every validation and serving path
	// returns; it carries a wire-stable code and doubles as the server's
	// JSON error body.
	RequestError = api.Error
)

// APIVersion is the wire-format major version requests and responses
// speak; within a version, revisions are strictly additive.
const APIVersion = api.Version

// Wire-stable request error codes; a *RequestError carries one and maps
// it onto an HTTP status via HTTPStatus.
const (
	// RequestCodeBadRequest marks a request that failed validation.
	RequestCodeBadRequest = api.CodeBadRequest
	// RequestCodeUnknownExperiment marks an experiment ID outside the
	// registry.
	RequestCodeUnknownExperiment = api.CodeUnknownExperiment
	// RequestCodeUnknownScene marks a scene name outside the benchmark
	// set.
	RequestCodeUnknownScene = api.CodeUnknownScene
	// RequestCodeSaturated marks a request rejected by queue-depth
	// backpressure; retry after the server's Retry-After interval.
	RequestCodeSaturated = api.CodeSaturated
	// RequestCodeInternal marks a server-side failure.
	RequestCodeInternal = api.CodeInternal
)

// RequestErrorf builds a typed *RequestError with the given wire code.
func RequestErrorf(code, format string, args ...any) *RequestError {
	return api.Errorf(code, format, args...)
}

// WrapRequestError converts any error into the typed wire form, passing
// *RequestError values through and classifying the library's typed
// errors (unknown experiment/scene) onto their codes; everything else
// becomes RequestCodeInternal.
func WrapRequestError(err error) *RequestError { return api.WrapError(err) }

// ValidateRequest checks an ExperimentRequest without running it,
// returning nil or a *RequestError naming the field, code and reason.
// Run validates internally; call this to fail fast (texsim does, to
// exit 2 before any work).
func ValidateRequest(req ExperimentRequest) error { return api.Validate(req) }

// NormalizeRequest returns a copy of req with version and scale
// defaults filled in (V 0 becomes APIVersion, Scale 0 becomes the
// half-resolution default).
func NormalizeRequest(req ExperimentRequest) ExperimentRequest { return req.Normalized() }

// Experiments.
type (
	// ExperimentConfig parameterizes a table/figure regeneration.
	ExperimentConfig = exp.Config
	// ExperimentResult is one finished experiment from Run.
	ExperimentResult = engine.Result
	// ExperimentOption tunes a Run batch.
	ExperimentOption = engine.Option
	// ExperimentProgress describes one finished experiment within a
	// running batch, delivered through WithProgress.
	ExperimentProgress = engine.Progress
	// TraceKey names one rendered texel address stream.
	TraceKey = exp.TraceKey
	// TraceProvider supplies rendered traces to experiments; the engine's
	// memoizing cache is the standard implementation.
	TraceProvider = exp.TraceProvider
	// TraceCache is the engine's memoizing, single-flight TraceProvider:
	// any number of concurrent requests for the same (scene, layout,
	// traversal, scale) key cost one render. Share one across requests
	// (texserve does, via WithTraceProvider) to coalesce identical work
	// process-wide; attach a TraceStore for a persistent disk tier.
	TraceCache = engine.TraceCache
	// UnknownExperimentError reports an experiment ID that is not in the
	// registry.
	UnknownExperimentError = exp.UnknownExperimentError
)

// Experiment batch options.
var (
	// WithWorkers bounds how many experiments run at once (default
	// GOMAXPROCS).
	WithWorkers = engine.WithWorkers
	// WithPrewarm toggles rendering declared traces ahead of the
	// experiments (default on).
	WithPrewarm = engine.WithPrewarm
	// WithRenderWorkers sets the tile-parallel rasterization worker
	// count for the batch's shared trace renders (0 = GOMAXPROCS,
	// 1 = serial). Traces are bit-identical at any setting.
	WithRenderWorkers = engine.WithRenderWorkers
	// WithProgress installs a per-experiment completion callback on a
	// Run batch.
	WithProgress = engine.WithProgress
	// WithTraceDir attaches a persistent on-disk trace store to the
	// batch's trace cache: rendered traces are written back, and later
	// batches pointed at the same directory load them instead of
	// rendering. Output is bit-identical with or without it.
	WithTraceDir = engine.WithTraceDir
	// WithTraceProvider injects the trace source for a run, replacing
	// the per-run cache (and WithTraceDir). Pass one shared *TraceCache
	// to coalesce identical renders across concurrent runs.
	WithTraceProvider = engine.WithTraces
	// WithPruning toggles Pareto-dominance pruning on grid runs: design
	// points provably dominated by an already-measured point are skipped
	// instead of replayed. The reported frontier is identical to the
	// exhaustive run's.
	WithPruning = engine.WithPruning
	// WithFrontierFile persists (and preloads) measured frontier points
	// in the given append-only NDJSON file during pruned grid runs.
	WithFrontierFile = engine.WithFrontierFile
)

// NewTraceCache returns an empty memoizing trace cache ready to share
// across runs via WithTraceProvider. Set its RenderWorkers field to
// bound tile-parallel rendering, and its Store field (OpenTraceStore)
// for a persistent disk tier; Renders reports how many renders the
// cache has actually performed — the coalescing observable.
func NewTraceCache() *TraceCache { return engine.NewTraceCache() }

// Observability. A MetricsRegistry collects counters, gauges and timers
// from the engine, the replay paths and the render pipeline; attach one
// to opt in (the library is a strict no-op otherwise), then snapshot it,
// publish it as an expvar, or serve it over HTTP:
//
//	reg := texcache.NewMetricsRegistry()
//	texcache.AttachMetrics(reg)
//	defer texcache.DetachMetrics()
//	texcache.PublishMetricsExpvar("texcache", reg)
//	srv, ln, _ := texcache.ServeMetrics(":8080") // /debug/vars, /debug/pprof
type (
	// MetricsRegistry is a hierarchical registry of atomic metrics.
	MetricsRegistry = obs.Registry
	// MetricsEvent is one lifecycle notification (experiment start/done,
	// frame rendered) from the registry's event stream.
	MetricsEvent = obs.Event
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// AttachMetrics installs reg as the process-wide registry the simulator's
// instrumentation reports into. Attach nil (or call DetachMetrics) to
// turn instrumentation back into no-ops.
func AttachMetrics(reg *MetricsRegistry) { obs.Attach(reg) }

// DetachMetrics removes the attached metrics registry.
func DetachMetrics() { obs.Detach() }

// AttachedMetrics returns the currently attached registry, or nil.
func AttachedMetrics() *MetricsRegistry { return obs.Default() }

// PublishMetricsExpvar exposes reg as the named expvar at /debug/vars.
func PublishMetricsExpvar(name string, reg *MetricsRegistry) { obs.PublishExpvar(name, reg) }

// ServeMetrics starts a debug HTTP server on addr exposing /debug/vars
// and /debug/pprof, returning the server and its bound listener (pass
// ":0" to pick a free port).
func ServeMetrics(addr string) (*http.Server, net.Listener, error) { return obs.Serve(addr) }

// Transform constructors.
var (
	// Identity returns the identity transform.
	Identity = vecmath.Identity
	// Translate returns a translation matrix.
	Translate = vecmath.Translate
	// ScaleMat returns a non-uniform scaling matrix.
	ScaleMat = vecmath.Scale
	// RotateX, RotateY and RotateZ return axis rotations (radians).
	RotateX = vecmath.RotateX
	RotateY = vecmath.RotateY
	RotateZ = vecmath.RotateZ
)

// NewRenderer returns a renderer for a width x height frame.
func NewRenderer(width, height int) *Renderer { return pipeline.NewRenderer(width, height) }

// LookAtCamera builds a perspective camera.
func LookAtCamera(eye, center, up Vec3, fovy, aspect, near, far float64) Camera {
	return pipeline.LookAtCamera(eye, center, up, fovy, aspect, near, far)
}

// NewArena returns a fresh simulated texture memory.
func NewArena() *Arena { return texture.NewArena() }

// NewTexture builds a Mip Map pyramid from base and lays it out in arena
// memory according to spec.
func NewTexture(id int, base *Image, spec LayoutSpec, arena *Arena) (*TextureObject, error) {
	return texture.NewTexture(id, base, spec, arena)
}

// NewImage returns a power-of-two RGBA8 image.
func NewImage(w, h int) *Image { return texture.NewImage(w, h) }

// Checker, Noise and Brick generate procedural texture content.
var (
	Checker = texture.Checker
	Noise   = texture.Noise
	Brick   = texture.Brick
)

// NewCache returns a cache simulator, or a *ConfigError when the
// configuration is invalid.
func NewCache(cfg CacheConfig) (*Cache, error) { return cache.TryNew(cfg) }

// NewClassifyingCache returns a simulator that also splits misses into
// cold, capacity and conflict, or a *ConfigError when the configuration
// is invalid.
func NewClassifyingCache(cfg CacheConfig) (*Cache, error) {
	return cache.TryNewClassifying(cfg)
}

// NewTrace returns an empty address trace recorder.
func NewTrace(sizeHint int) *Trace { return cache.NewTrace(sizeHint) }

// NewStackDist returns a stack-distance profiler for the line size.
func NewStackDist(lineBytes int) *StackDist { return cache.NewStackDist(lineBytes) }

// NewBankAnalyzer returns an empty Section 7.1.2 bank-conflict analyzer.
func NewBankAnalyzer() *BankAnalyzer { return banks.New() }

// DefaultPerfModel returns the paper's machine constants: 100 MHz, 4
// texels/cycle, 8 texels/fragment (50M textured fragments/s peak).
func DefaultPerfModel() PerfModel { return perf.Default() }

// SceneNames lists the four benchmarks in the paper's order.
func SceneNames() []string { return scenes.Names() }

// UnknownSceneError reports a scene name outside the benchmark set.
type UnknownSceneError = scenes.UnknownSceneError

// SceneByNameChecked builds a benchmark scene. Scale 1 is the paper's
// full resolution; powers of two divide the screen and texture sizes.
// Unknown names return an *UnknownSceneError.
func SceneByNameChecked(name string, scale int) (*Scene, error) {
	return scenes.ByNameChecked(name, scale)
}

// ExperimentIDs lists the registered table/figure experiments.
func ExperimentIDs() []string { return exp.IDs() }

// Run executes one ExperimentRequest — the single entry point every
// binary shares — and streams one ExperimentResult per unit of work as
// each finishes; the channel is closed after the last.
//
// An experiments-kind request (the default) runs the named registered
// experiments (all of them when Experiments is empty), sharing renders
// across the batch: each (scene, layout, traversal) stream any
// experiment needs is rendered exactly once, and multi-configuration
// sweeps replay each trace in a single pass. A sweep-kind request
// (Scene + Configs set) renders one texel stream and replays the
// requested cache organizations against it, yielding a single result
// whose table classifies every configuration's misses.
//
// The request is normalized (zero scale means half resolution) and
// validated first; invalid requests fail fast with a *RequestError
// before any work starts, unknown experiment IDs and scene names
// unwrapping to their classic typed errors. Result.Index is the unit's
// position in the request, so callers wanting deterministic output can
// reorder the stream by Index; Result.Err carries per-unit failures,
// including context cancellation.
func Run(ctx context.Context, req ExperimentRequest, opts ...ExperimentOption) (<-chan ExperimentResult, error) {
	req = req.Normalized()
	if err := api.Validate(req); err != nil {
		return nil, err
	}
	eopts := append([]ExperimentOption{
		engine.WithWorkers(req.Workers),
		engine.WithRenderWorkers(req.RenderWorkers),
	}, opts...)
	return engine.New(eopts...).RunRequest(ctx, req)
}

// WriteResultsNDJSON re-serializes a Run result stream as
// newline-delimited JSON in request order, each line stamped with its
// experiment ID. texsim -json and the texserve response body both render
// through it, which is what makes their bytes identical for the same
// request. It returns the first write or per-result error after
// draining the stream.
func WriteResultsNDJSON(w io.Writer, results <-chan ExperimentResult, onResult func(ExperimentResult)) error {
	return engine.StreamNDJSON(w, results, onResult)
}

// ResultCache is the engine's content-addressed memoization tier for
// finished NDJSON result streams: a repeated cacheable request is served
// as stored bytes (byte-identical to a fresh run) instead of
// re-simulated, and identical concurrent requests coalesce onto exactly
// one simulation. Share one across runs via WithResultCache (texserve
// does, across all tenants); attach a directory for a persistent
// <sha256(key)>.result tier surviving restarts. Grid requests bypass it:
// their row set depends on pruning frontier state.
type ResultCache = engine.ResultCache

// ResultFormatVersion names the NDJSON result serialization; it is part
// of every result-cache key, so bumping it invalidates stored streams.
const ResultFormatVersion = engine.ResultFormatVersion

// NewResultCache returns an empty memory-only result cache with default
// budgets (bounded LRU). Call AttachDir for the persistent tier;
// Produced reports how many simulations it has actually run — the
// coalescing observable.
func NewResultCache() *ResultCache { return engine.NewResultCache() }

// Result-stream options.
var (
	// WithResultCache shares a ResultCache across RunNDJSON calls so
	// repeated requests are served from memory (and identical concurrent
	// requests run once).
	WithResultCache = engine.WithResultCache
	// WithResultDir attaches a persistent result store rooted at dir to
	// a per-run result cache: finished streams are written back as
	// <sha256(key)>.result files and later runs load them instead of
	// simulating. Ignored when WithResultCache is set.
	WithResultDir = engine.WithResultDir
)

// RunNDJSON executes one ExperimentRequest and writes its NDJSON stream
// to w — Run piped through WriteResultsNDJSON, with the configured
// result cache (WithResultCache / WithResultDir) consulted first. A
// warm request returns the stored stream byte-identical to a fresh
// computation in microseconds; a cold one simulates while streaming and
// caches the finished bytes. onResult (may be nil) fires per finished
// result on the producing path only — cache hits write the complete
// stream with no callbacks.
func RunNDJSON(ctx context.Context, req ExperimentRequest, w io.Writer, onResult func(ExperimentResult), opts ...ExperimentOption) error {
	req = req.Normalized()
	if err := api.Validate(req); err != nil {
		return err
	}
	eopts := append([]ExperimentOption{
		engine.WithWorkers(req.Workers),
		engine.WithRenderWorkers(req.RenderWorkers),
	}, opts...)
	return engine.New(eopts...).RunRequestNDJSON(ctx, req, w, onResult)
}

// Sharded design-space exploration (internal/shard): grid requests
// enumerate into deterministic trace groups, worker processes run
// disjoint slices, and the pieces merge back bit-identically.

// GridCollector parses a grid run's NDJSON stream as it is written
// (tee the output through it with io.MultiWriter) and computes the
// Pareto frontier of miss rate against hardware cost from exactly the
// rows emitted; WriteFrontier appends it as "exp":"pareto" lines.
type GridCollector = shard.Collector

// NewGridCollector returns an empty grid stream collector.
func NewGridCollector() *GridCollector { return shard.NewCollector() }

// MergeGridStreams k-way merges the NDJSON streams of a sharded grid
// run back into the canonical unsharded order, writing the merged
// stream to w. traces is the expected trace-group count
// (GridTraceCount); a group missing from — or duplicated across — the
// streams is an error.
func MergeGridStreams(w io.Writer, streams []io.Reader, traces int) error {
	return shard.MergeStreams(w, streams, traces)
}

// GridTraceCount reports how many trace groups a grid enumerates at the
// given request scale — the shard coordinator's expected group total.
func GridTraceCount(g RequestGrid, scale int) (int, error) {
	groups, err := shard.Enumerate(g, scale)
	if err != nil {
		return 0, err
	}
	return len(groups), nil
}
