// Package scenes synthesizes the paper's four texture-mapping benchmarks
// (Table 4.1): Flight, Town, Guitar and Goblet. The original SGI
// RealityEngine demo content is not available, so each scene is generated
// procedurally to the published characteristics — image resolution,
// triangle count and size, number and size of textures, texture
// repetition, texture orientation on screen, and level-of-detail
// behavior — since those are the properties that determine the texel
// address stream the cache study measures.
package scenes

import (
	"fmt"

	"texcache/internal/cache"
	"texcache/internal/cost"
	"texcache/internal/geom"
	"texcache/internal/obs"
	"texcache/internal/pipeline"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/vecmath"
)

// Scene is a renderable benchmark: geometry in draw order, camera, and
// the texture images (pyramids prebuilt, layouts bound at render time).
type Scene struct {
	Name          string
	Width, Height int
	Camera        pipeline.Camera
	Light         *pipeline.DirectionalLight
	Draws         []Draw
	Mips          []*texture.MipMap

	// CullBack enables back-face culling, used by the closed-surface
	// scenes (Goblet, Town buildings).
	CullBack bool

	// CameraPath, when non-nil, animates the camera: CameraPath(t)
	// returns the camera t seconds into a smooth motion whose t=0 frame
	// is Camera. Used by the inter-frame temporal-locality study
	// (Section 3.1.2 discusses but does not measure frame-to-frame
	// reuse).
	CameraPath func(t float64) pipeline.Camera
}

// CameraAt returns the camera for time t along the scene's motion path
// (the static camera when the scene has none).
func (s *Scene) CameraAt(t float64) pipeline.Camera {
	if s.CameraPath == nil || t == 0 {
		return s.Camera
	}
	return s.CameraPath(t)
}

// Draw is one mesh with its model transform, drawn in slice order.
type Draw struct {
	Mesh  *geom.Mesh
	Model vecmath.Mat4
}

// RenderOptions selects the memory representation and traversal for one
// simulated frame.
type RenderOptions struct {
	Layout    texture.LayoutSpec
	Traversal raster.Traversal
	// Sink receives every texel address (nil to skip tracing).
	Sink cache.Sink
	// OnAccess observes logical texel touches (nil to skip).
	OnAccess func(texture.AccessEvent)
	// Counters accumulates Table 2.1 op counts (nil to skip).
	Counters *cost.Counters
	// FragmentMask restricts rendering to owned pixels (parallel
	// fragment-generator studies); nil renders everything.
	FragmentMask func(x, y int) bool
	// Time selects the camera position along the scene's motion path;
	// zero renders the canonical frame.
	Time float64
	// Workers above one rasterizes the frame's screen tiles on that
	// many goroutines; the texel address stream is merged back into the
	// exact serial order, so traces are bit-identical at any worker
	// count. Zero or one renders serially, as do frames with an
	// OnAccess or Counters consumer.
	Workers int
}

// Render draws one frame of the scene and returns the renderer, whose
// framebuffer and statistics reflect the frame. Textures are laid out in
// a fresh arena in texture-ID order, mirroring the paper's consecutive
// malloc() placement.
func (s *Scene) Render(opt RenderOptions) (*pipeline.Renderer, error) {
	r := pipeline.NewRenderer(s.Width, s.Height)
	r.Traversal = opt.Traversal
	r.Light = s.Light
	r.CullBack = s.CullBack
	r.Sink = opt.Sink
	r.OnAccess = opt.OnAccess
	r.Counters = opt.Counters
	r.FragmentMask = opt.FragmentMask
	r.RenderWorkers = opt.Workers

	arena := texture.NewArena()
	r.Textures = make([]*texture.Texture, len(s.Mips))
	for i, mip := range s.Mips {
		layout, err := texture.NewLayout(opt.Layout, mip.Dims(), arena)
		if err != nil {
			return nil, fmt.Errorf("scenes: laying out texture %d of %s: %w", i, s.Name, err)
		}
		r.Textures[i] = &texture.Texture{ID: i, Mip: mip, Layout: layout}
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	cam := s.CameraAt(opt.Time)
	for _, d := range s.Draws {
		r.DrawMesh(d.Mesh, d.Model, cam)
	}
	// Completes the tile-parallel pass when one is active (no-op for
	// serial frames), so the stats below always cover the whole frame.
	r.Finish()
	// Bulk-flush frame statistics to the attached registry — one update
	// per frame, never per fragment or texel.
	if reg := obs.Default(); reg != nil {
		rend := reg.Sub("render")
		rend.Counter("frames").Inc()
		rend.Counter("fragments").Add(r.Stats.FragmentsTextured)
		rend.Counter("texel_fetches").Add(r.TexelFetches())
	}
	return r, nil
}

// traceSizeHint sizes a frame's trace preallocation from the screen
// area: trilinear filtering fetches eight texels per textured fragment,
// and partial coverage roughly offsets overdraw. Trace growth doubles,
// so an undershoot costs one copy, not a reallocation per append.
func (s *Scene) traceSizeHint() int {
	return s.Width * s.Height * 8
}

// Trace renders one frame and returns the recorded texel address trace,
// for replay through many cache configurations.
func (s *Scene) Trace(layout texture.LayoutSpec, trav raster.Traversal) (*cache.Trace, *pipeline.Renderer, error) {
	tr := cache.NewTrace(s.traceSizeHint())
	r, err := s.Render(RenderOptions{Layout: layout, Traversal: trav, Sink: tr})
	if err != nil {
		return nil, nil, err
	}
	return tr, r, nil
}

// TraceParallel is Trace with tile-parallel rasterization on the given
// number of workers (values below two render serially). The returned
// trace is bit-identical to Trace's at every worker count.
func (s *Scene) TraceParallel(layout texture.LayoutSpec, trav raster.Traversal, workers int) (*cache.Trace, *pipeline.Renderer, error) {
	tr := cache.NewTrace(s.traceSizeHint())
	r, err := s.Render(RenderOptions{Layout: layout, Traversal: trav, Sink: tr, Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	return tr, r, nil
}

// Layouts builds the scene's texture layouts in a fresh arena without
// rendering, in the same texture-ID order Render uses — so addresses in
// a trace recorded with the same spec resolve against them.
func (s *Scene) Layouts(spec texture.LayoutSpec) ([]texture.Layout, error) {
	arena := texture.NewArena()
	out := make([]texture.Layout, len(s.Mips))
	for i, mip := range s.Mips {
		l, err := texture.NewLayout(spec, mip.Dims(), arena)
		if err != nil {
			return nil, fmt.Errorf("scenes: laying out texture %d of %s: %w", i, s.Name, err)
		}
		out[i] = l
	}
	return out, nil
}

// TextureStorageBytes returns the total unpadded Mip Map footprint of the
// scene's textures (the Table 4.1 "Texture Storage" column).
func (s *Scene) TextureStorageBytes() int {
	n := 0
	for _, m := range s.Mips {
		n += m.SizeBytes()
	}
	return n
}

// Triangles returns the total triangle count of the draw list.
func (s *Scene) Triangles() int {
	n := 0
	for _, d := range s.Draws {
		n += d.Mesh.Len()
	}
	return n
}

// DefaultTraversal returns the untiled traversal in the scene's reported
// rasterization direction.
func (s *Scene) DefaultTraversal() raster.Traversal { return DefaultTraversal(s.Name) }

// DefaultTraversal returns the untiled traversal in the named scene's
// reported rasterization direction: vertical for Town, its worst case,
// and horizontal for the others (Section 5.2.3). It is static, so Needs
// declarations and request defaults read it without building the scene.
func DefaultTraversal(name string) raster.Traversal {
	if name == "town" {
		return raster.Traversal{Order: raster.ColumnMajor}
	}
	return raster.Traversal{Order: raster.RowMajor}
}

// Builder names a scene constructor, keyed by the lowercase scene name.
type Builder func(scale int) *Scene

// Builders returns the four benchmark constructors in the paper's
// presentation order.
func Builders() map[string]Builder {
	return map[string]Builder{
		"flight": Flight,
		"town":   Town,
		"guitar": Guitar,
		"goblet": Goblet,
	}
}

// Names returns the scene names in the paper's order.
func Names() []string { return []string{"flight", "town", "guitar", "goblet"} }

// UnknownSceneError reports a scene name that is not one of the four
// benchmarks.
type UnknownSceneError struct{ Name string }

func (e *UnknownSceneError) Error() string {
	return "texcache: unknown scene " + e.Name
}

// ByNameChecked builds the named scene at the given scale, returning an
// *UnknownSceneError instead of nil for names outside the benchmark set.
// Every call builds a fresh scene that the caller owns and may modify;
// Shared hands out one read-only scene per (name, scale) instead.
func ByNameChecked(name string, scale int) (*Scene, error) {
	if b, ok := Builders()[name]; ok {
		return b(scale), nil
	}
	return nil, &UnknownSceneError{Name: name}
}

// div scales a dimension down, keeping a floor of 1.
func div(n, scale int) int {
	if scale <= 1 {
		return n
	}
	v := n / scale
	if v < 1 {
		return 1
	}
	return v
}

// texDiv scales a power-of-two texture dimension down, flooring at 8
// texels so pyramids stay meaningful.
func texDiv(n, scale int) int {
	v := n
	for s := scale; s > 1; s /= 2 {
		v /= 2
	}
	if v < 8 {
		return 8
	}
	return v
}

// white is the untinted vertex color.
var white = vecmath.Vec3{X: 1, Y: 1, Z: 1}
