// Package pipeline assembles the full software 3D polygonal graphics
// pipeline of Section 4.1: geometry transform, frustum clipping, vertex
// lighting, rasterization (via internal/raster), Mip Mapped texture
// mapping per the OpenGL specification (via internal/texture), Z-buffer
// hidden-surface removal and framebuffer output. Every texel fetched
// during texturing is reported to the attached cache simulator.
package pipeline

import (
	"fmt"
	"math"

	"texcache/internal/cache"
	"texcache/internal/cost"
	"texcache/internal/fb"
	"texcache/internal/geom"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/vecmath"
)

// Camera bundles the view and projection transforms.
type Camera struct {
	View vecmath.Mat4
	Proj vecmath.Mat4
}

// LookAtCamera builds a camera at eye looking at center with a standard
// perspective projection.
func LookAtCamera(eye, center, up vecmath.Vec3, fovy, aspect, near, far float64) Camera {
	return Camera{
		View: vecmath.LookAt(eye, center, up),
		Proj: vecmath.Perspective(fovy, aspect, near, far),
	}
}

// DirectionalLight is a simple diffuse light for vertex shading.
type DirectionalLight struct {
	Dir     vecmath.Vec3 // direction the light travels
	Ambient float64
	Diffuse float64
}

// FrameStats accumulates per-frame pipeline counters, the raw material
// for the Table 4.1 benchmark characterization.
type FrameStats struct {
	TrianglesIn       int
	TrianglesClipped  int // dropped entirely by the frustum
	FragmentsTextured uint64
	FragmentsShaded   uint64
	TriangleAreaSum   float64 // total covered pixels, textured triangles
	TriangleWidthSum  float64 // bounding box widths, textured triangles
	TriangleHeightSum float64
	TexturedTris      int
}

// Renderer drives the pipeline for one output image.
type Renderer struct {
	Width, Height int
	FB            *fb.Framebuffer
	Traversal     raster.Traversal
	Light         *DirectionalLight
	Textures      []*texture.Texture
	// CullBack drops back-facing triangles (clockwise on a y-down screen)
	// before fragment generation, as closed-surface scenes enable in GL.
	CullBack bool
	// FragmentMask, when non-nil, restricts the renderer to the screen
	// pixels it claims — the image-space work partition of a parallel
	// machine with multiple fragment generators (Section 8). Fragments
	// outside the mask are dropped before shading and texturing.
	FragmentMask func(x, y int) bool

	// Sink receives every texel address fetched during texturing; nil
	// renders without tracing.
	Sink cache.Sink
	// OnAccess optionally observes every logical texel touch.
	OnAccess func(texture.AccessEvent)
	// Counters optionally accumulates the Table 2.1 operation costs.
	Counters *cost.Counters

	// RenderWorkers above one enables tile-parallel rasterization: the
	// frame's triangles are captured during DrawMesh and rasterized
	// across that many goroutines when Finish is called, with the texel
	// address stream merged back into the exact serial order. Zero or
	// one keeps the fully serial path. Frames with an OnAccess or
	// Counters consumer always render serially (those observe the
	// stream as it is produced).
	RenderWorkers int

	Stats FrameStats

	sampler  texture.Sampler
	scratch  [2][]clipVertex
	deferred []screenTri
	// tilePx is the screen-tile edge for the parallel path
	// (DefaultTilePx when zero or negative).
	tilePx int
}

// NewRenderer returns a renderer for a width x height frame.
func NewRenderer(width, height int) *Renderer {
	return &Renderer{
		Width:  width,
		Height: height,
		FB:     fb.New(width, height),
	}
}

// TexelFetches returns the number of logical texel reads the renderer's
// sampler has performed, cumulative across frames.
func (r *Renderer) TexelFetches() uint64 { return r.sampler.Fetches }

// TextureByID returns the texture for a triangle's TexID, or nil when the
// triangle is untextured.
func (r *Renderer) TextureByID(id int) *texture.Texture {
	if id < 0 || id >= len(r.Textures) {
		return nil
	}
	return r.Textures[id]
}

// DrawMesh renders every triangle of the mesh in input order under the
// model transform, matching the paper's "triangles are rasterized in the
// same order that they are specified in the input".
func (r *Renderer) DrawMesh(m *geom.Mesh, model vecmath.Mat4, cam Camera) {
	mvp := cam.Proj.Mul(cam.View).Mul(model)
	for i := range m.Tris {
		r.drawTriangle(&m.Tris[i], model, mvp)
	}
}

func (r *Renderer) drawTriangle(tr *geom.Triangle, model, mvp vecmath.Mat4) {
	r.Stats.TrianglesIn++
	if r.Counters != nil {
		r.Counters.TriangleSetup()
	}

	var cv [3]clipVertex
	for i, v := range tr.V {
		shade := r.shadeVertex(v, model)
		cv[i] = clipVertex{
			Pos:   mvp.MulVec(vecmath.Point4(v.Pos)),
			UV:    v.UV,
			Color: shade,
		}
	}

	poly := clipTriangle(cv[0], cv[1], cv[2], &r.scratch)
	if len(poly) < 3 {
		r.Stats.TrianglesClipped++
		return
	}

	tex := r.TextureByID(tr.TexID)
	verts := make([]raster.Vert, len(poly))
	for i, p := range poly {
		verts[i] = r.toScreen(p)
	}
	if r.CullBack && len(verts) >= 3 {
		// Signed area of the projected polygon's first triangle: the clip
		// polygon is planar and convex, so one triangle determines the
		// winding. With this pipeline's y-down viewport, front faces (GL
		// counter-clockwise) project to positive signed area.
		a := (verts[1].X-verts[0].X)*(verts[2].Y-verts[0].Y) -
			(verts[1].Y-verts[0].Y)*(verts[2].X-verts[0].X)
		if a <= 0 {
			return
		}
	}
	// Fan-triangulate the clipped polygon.
	for i := 1; i+1 < len(verts); i++ {
		r.rasterizeScreenTri(&screenTri{v0: verts[0], v1: verts[i], v2: verts[i+1], tex: tex})
	}
	if tex != nil {
		r.Stats.TexturedTris++
		r.accumulateTriangleDims(verts)
	}
}

// shadeVertex computes the vertex color: base color modulated by a
// directional diffuse light, or the base color alone without a light.
func (r *Renderer) shadeVertex(v geom.Vertex, model vecmath.Mat4) vecmath.Vec3 {
	if r.Light == nil {
		return v.Color
	}
	n := model.TransformDir(v.Normal).Normalize()
	l := r.Light.Dir.Normalize().Scale(-1)
	diff := math.Max(0, n.Dot(l))
	k := vecmath.Clamp(r.Light.Ambient+r.Light.Diffuse*diff, 0, 1)
	return v.Color.Scale(k)
}

// toScreen maps a clip-space vertex to a rasterizer vertex: viewport
// transform plus the perspective pre-division of attributes.
func (r *Renderer) toScreen(p clipVertex) raster.Vert {
	invW := 1 / p.Pos.W
	ndcX := p.Pos.X * invW
	ndcY := p.Pos.Y * invW
	ndcZ := p.Pos.Z * invW
	return raster.Vert{
		X:    (ndcX + 1) * 0.5 * float64(r.Width),
		Y:    (1 - ndcY) * 0.5 * float64(r.Height), // y-down screen
		Z:    ndcZ,
		InvW: invW,
		UW:   p.UV.X * invW,
		VW:   p.UV.Y * invW,
		RW:   p.Color.X * invW,
		GW:   p.Color.Y * invW,
		BW:   p.Color.Z * invW,
	}
}

// rasterizeScreenTri captures the triangle for the tile pass of a
// deferred frame, or scans it now with the whole screen as its clip.
func (r *Renderer) rasterizeScreenTri(st *screenTri) {
	if r.deferTri(st) {
		return
	}
	r.sampler.Sink = r.Sink
	r.sampler.OnAccess = r.OnAccess
	screen := raster.Rect{X1: r.Width - 1, Y1: r.Height - 1}
	r.drawFragments(st, screen, &r.sampler, &r.Stats.FragmentsShaded, &r.Stats.FragmentsTextured, nil)
}

// drawFragments scans one screen triangle inside clip — the whole screen
// for a serial frame, the tile's rect for the tile pass — and textures,
// shades and resolves the visibility of each covered fragment. Texels
// are fetched through smp, and fragments count into shaded and textured.
// For a tile, ts records each textured fragment's rank and address run
// for the merge; a serial frame passes nil. Texturing happens before the
// depth test, as in the OpenGL pipeline the paper models — occluded
// fragments still cost texture bandwidth.
func (r *Renderer) drawFragments(st *screenTri, clip raster.Rect, smp *texture.Sampler, shaded, textured *uint64, ts *tileStream) {
	tex := st.tex
	texW, texH := 0, 0
	if tex != nil {
		texW = tex.Mip.Levels[0].W
		texH = tex.Mip.Levels[0].H
	}
	raster.RasterizeRect(st.v0, st.v1, st.v2, r.Width, r.Height, texW, texH, r.Traversal, clip,
		func(f *raster.Fragment, rank uint64) {
			if r.FragmentMask != nil && !r.FragmentMask(f.X, f.Y) {
				return
			}
			*shaded++
			if r.Counters != nil {
				r.Counters.FragmentShade()
			}
			cr, cg, cb := f.R, f.G, f.B
			if tex != nil {
				*textured++
				if r.Counters != nil {
					r.Counters.FragmentTexture(f.Lambda <= 0, tex.Layout.Cost())
				}
				before := 0
				if ts != nil {
					before = len(ts.addrs)
				}
				c := smp.Sample(tex, f.U, f.V, f.Lambda)
				cr *= c.R
				cg *= c.G
				cb *= c.B
				if ts != nil && len(ts.addrs) > before {
					ts.frags = append(ts.frags, fragRec{rank: rank, n: uint32(len(ts.addrs) - before)})
				}
			}
			if r.FB.DepthTest(f.X, f.Y, f.Z) {
				r.FB.SetPixel(f.X, f.Y, cr, cg, cb)
			}
		})
}

func (r *Renderer) accumulateTriangleDims(verts []raster.Vert) {
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, v := range verts {
		minX = math.Min(minX, v.X)
		maxX = math.Max(maxX, v.X)
		minY = math.Min(minY, v.Y)
		maxY = math.Max(maxY, v.Y)
	}
	// Polygon area via the shoelace formula over the clipped fan.
	area := 0.0
	for i := 1; i+1 < len(verts); i++ {
		a, b, c := verts[0], verts[i], verts[i+1]
		area += math.Abs((b.X-a.X)*(c.Y-a.Y)-(b.Y-a.Y)*(c.X-a.X)) / 2
	}
	r.Stats.TriangleAreaSum += area
	r.Stats.TriangleWidthSum += maxX - minX
	r.Stats.TriangleHeightSum += maxY - minY
}

// Validate checks the renderer is fully wired before a frame.
func (r *Renderer) Validate() error {
	if r.Width <= 0 || r.Height <= 0 {
		return fmt.Errorf("pipeline: invalid dimensions %dx%d", r.Width, r.Height)
	}
	if r.FB == nil {
		return fmt.Errorf("pipeline: nil framebuffer")
	}
	if r.FB.W != r.Width || r.FB.H != r.Height {
		return fmt.Errorf("pipeline: framebuffer %dx%d does not match renderer %dx%d",
			r.FB.W, r.FB.H, r.Width, r.Height)
	}
	return nil
}
