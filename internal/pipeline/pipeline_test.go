package pipeline

import (
	"math"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/cost"
	"texcache/internal/geom"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/vecmath"
)

// frontQuadScene builds a renderer looking straight at a textured quad
// that covers most of the view.
func frontQuadScene(t *testing.T, w, h int) (*Renderer, *geom.Mesh, Camera) {
	t.Helper()
	r := NewRenderer(w, h)
	arena := texture.NewArena()
	tex, err := texture.NewTexture(0, texture.Checker(64, 64, 8,
		texture.Texel{R: 255, G: 255, B: 255, A: 255}, texture.Texel{R: 0, G: 0, B: 0, A: 255}),
		texture.LayoutSpec{Kind: texture.NonBlockedKind}, arena)
	if err != nil {
		t.Fatal(err)
	}
	r.Textures = []*texture.Texture{tex}
	mesh := geom.Quad(2, 2, 0)
	cam := LookAtCamera(vecmath.Vec3{Z: 2}, vecmath.Vec3{}, vecmath.Vec3{Y: 1},
		math.Pi/2, float64(w)/float64(h), 0.1, 10)
	return r, mesh, cam
}

func TestRenderTexturedQuadCoverage(t *testing.T) {
	r, mesh, cam := frontQuadScene(t, 64, 64)
	r.DrawMesh(mesh, vecmath.Identity(), cam)
	if r.Stats.TrianglesIn != 2 {
		t.Errorf("TrianglesIn = %d", r.Stats.TrianglesIn)
	}
	if r.Stats.FragmentsTextured == 0 {
		t.Fatal("no textured fragments")
	}
	// Quad spans [-1,1] at z=0 seen from z=2 with 90-degree fov: it covers
	// the middle half of the screen, so roughly 32x32 = 1024 pixels.
	got := float64(r.Stats.FragmentsTextured)
	if got < 900 || got > 1200 {
		t.Errorf("textured fragments = %v, want ~1024", got)
	}
	if r.FB.CoveredPixels() != int(r.Stats.FragmentsShaded) {
		t.Errorf("covered %d pixels but shaded %d fragments (no overlap expected)",
			r.FB.CoveredPixels(), r.Stats.FragmentsShaded)
	}
}

// TestSerialFrameCoversScreenEdges: a serial frame scans each triangle
// with the whole screen as its clip, so a quad larger than the view
// covers every pixel, the edge rows and columns included.
func TestSerialFrameCoversScreenEdges(t *testing.T) {
	const w, h = 48, 32
	r, mesh, _ := frontQuadScene(t, w, h)
	cam := LookAtCamera(vecmath.Vec3{Z: 0.5}, vecmath.Vec3{}, vecmath.Vec3{Y: 1},
		math.Pi/2, float64(w)/float64(h), 0.1, 10)
	r.DrawMesh(mesh, vecmath.Identity(), cam)
	if got := r.FB.CoveredPixels(); got != w*h || r.Stats.FragmentsShaded != w*h {
		t.Errorf("covered %d pixels with %d fragments, want all %d", got, r.Stats.FragmentsShaded, w*h)
	}
}

func TestRenderEmitsTexelAccesses(t *testing.T) {
	r, mesh, cam := frontQuadScene(t, 64, 64)
	tr := cache.NewTrace(0)
	r.Sink = tr
	r.DrawMesh(mesh, vecmath.Identity(), cam)
	// Trilinear or bilinear: 4 or 8 accesses per textured fragment.
	n := uint64(tr.Len())
	if n < 4*r.Stats.FragmentsTextured || n > 8*r.Stats.FragmentsTextured {
		t.Errorf("%d accesses for %d fragments", n, r.Stats.FragmentsTextured)
	}
	// All addresses must fall inside the texture's layout region.
	l := r.Textures[0].Layout
	for _, a := range tr.Addrs {
		if a < l.Base() || a >= l.Base()+l.SizeBytes() {
			t.Fatalf("address %d outside texture memory", a)
		}
	}
}

func TestMagnifiedQuadUsesBilinear(t *testing.T) {
	// Small texture stretched over the screen: magnification everywhere,
	// so every fragment performs a 4-access bilinear fetch.
	r := NewRenderer(64, 64)
	arena := texture.NewArena()
	tex, err := texture.NewTexture(0, texture.Checker(8, 8, 2,
		texture.Texel{R: 255, A: 255}, texture.Texel{G: 255, A: 255}),
		texture.LayoutSpec{Kind: texture.NonBlockedKind}, arena)
	if err != nil {
		t.Fatal(err)
	}
	r.Textures = []*texture.Texture{tex}
	kinds := map[texture.AccessKind]int{}
	r.OnAccess = func(e texture.AccessEvent) { kinds[e.Kind]++ }
	cam := LookAtCamera(vecmath.Vec3{Z: 1.2}, vecmath.Vec3{}, vecmath.Vec3{Y: 1},
		math.Pi/2, 1, 0.1, 10)
	r.DrawMesh(geom.Quad(2, 2, 0), vecmath.Identity(), cam)
	if kinds[texture.AccessBilinear] == 0 {
		t.Error("expected bilinear accesses for magnified texture")
	}
	if kinds[texture.AccessTrilinearLower] != kinds[texture.AccessTrilinearUpper] {
		t.Error("trilinear lower/upper counts should match")
	}
}

func TestMinifiedQuadUsesTrilinear(t *testing.T) {
	// Large texture on a small on-screen quad: minification, trilinear.
	r := NewRenderer(32, 32)
	arena := texture.NewArena()
	tex, err := texture.NewTexture(0, texture.Checker(256, 256, 8,
		texture.Texel{R: 255, A: 255}, texture.Texel{G: 255, A: 255}),
		texture.LayoutSpec{Kind: texture.NonBlockedKind}, arena)
	if err != nil {
		t.Fatal(err)
	}
	r.Textures = []*texture.Texture{tex}
	kinds := map[texture.AccessKind]int{}
	r.OnAccess = func(e texture.AccessEvent) { kinds[e.Kind]++ }
	cam := LookAtCamera(vecmath.Vec3{Z: 3}, vecmath.Vec3{}, vecmath.Vec3{Y: 1},
		math.Pi/2, 1, 0.1, 10)
	r.DrawMesh(geom.Quad(2, 2, 0), vecmath.Identity(), cam)
	if kinds[texture.AccessBilinear] != 0 {
		t.Errorf("unexpected bilinear accesses: %v", kinds)
	}
	if kinds[texture.AccessTrilinearLower] == 0 {
		t.Error("expected trilinear accesses")
	}
}

func TestZBufferOcclusion(t *testing.T) {
	// Two overlapping quads: the nearer one wins regardless of draw order.
	draw := func(nearFirst bool) [3]uint8 {
		r := NewRenderer(16, 16)
		near := geom.Quad(2, 2, -1)
		for i := range near.Tris {
			for j := range near.Tris[i].V {
				near.Tris[i].V[j].Color = vecmath.Vec3{X: 1} // red
			}
		}
		far := geom.Quad(2, 2, -1).Transform(vecmath.Translate(vecmath.Vec3{Z: -0.5}))
		for i := range far.Tris {
			for j := range far.Tris[i].V {
				far.Tris[i].V[j].Color = vecmath.Vec3{Y: 1} // green
			}
		}
		cam := LookAtCamera(vecmath.Vec3{Z: 2}, vecmath.Vec3{}, vecmath.Vec3{Y: 1},
			math.Pi/2, 1, 0.1, 10)
		if nearFirst {
			r.DrawMesh(near, vecmath.Identity(), cam)
			r.DrawMesh(far, vecmath.Identity(), cam)
		} else {
			r.DrawMesh(far, vecmath.Identity(), cam)
			r.DrawMesh(near, vecmath.Identity(), cam)
		}
		c := r.FB.At(8, 8)
		return [3]uint8{c.R, c.G, c.B}
	}
	for _, nearFirst := range []bool{true, false} {
		c := draw(nearFirst)
		if c[0] == 0 || c[1] != 0 {
			t.Errorf("nearFirst=%v: center pixel = %v, want red", nearFirst, c)
		}
	}
}

func TestClippingDropsOffscreenTriangles(t *testing.T) {
	r := NewRenderer(16, 16)
	cam := LookAtCamera(vecmath.Vec3{Z: 2}, vecmath.Vec3{}, vecmath.Vec3{Y: 1},
		math.Pi/2, 1, 0.1, 10)
	behind := geom.Quad(2, 2, -1).Transform(vecmath.Translate(vecmath.Vec3{Z: 5}))
	r.DrawMesh(behind, vecmath.Identity(), cam)
	if r.Stats.TrianglesClipped != 2 {
		t.Errorf("clipped = %d, want 2", r.Stats.TrianglesClipped)
	}
	if r.Stats.FragmentsShaded != 0 {
		t.Errorf("shaded %d fragments from an off-screen quad", r.Stats.FragmentsShaded)
	}
}

func TestClippingPartialTriangle(t *testing.T) {
	// A quad straddling the near plane still renders its visible part.
	r := NewRenderer(32, 32)
	cam := LookAtCamera(vecmath.Vec3{Z: 1}, vecmath.Vec3{}, vecmath.Vec3{Y: 1},
		math.Pi/2, 1, 0.5, 10)
	// Rotate the quad so part of it crosses the near plane.
	m := geom.Quad(6, 6, -1).Transform(vecmath.RotateX(math.Pi / 2.5))
	r.DrawMesh(m, vecmath.Identity(), cam)
	if r.Stats.FragmentsShaded == 0 {
		t.Error("partially clipped quad rendered nothing")
	}
}

func TestLightingDarkensFacingAway(t *testing.T) {
	r := NewRenderer(16, 16)
	r.Light = &DirectionalLight{Dir: vecmath.Vec3{Z: -1}, Ambient: 0.2, Diffuse: 0.8}
	cam := LookAtCamera(vecmath.Vec3{Z: 2}, vecmath.Vec3{}, vecmath.Vec3{Y: 1},
		math.Pi/2, 1, 0.1, 10)
	r.DrawMesh(geom.Quad(2, 2, -1), vecmath.Identity(), cam)
	lit := r.FB.At(8, 8)

	r2 := NewRenderer(16, 16)
	r2.Light = &DirectionalLight{Dir: vecmath.Vec3{Z: 1}, Ambient: 0.2, Diffuse: 0.8}
	r2.DrawMesh(geom.Quad(2, 2, -1), vecmath.Identity(), cam)
	unlit := r2.FB.At(8, 8)
	if lit.R <= unlit.R {
		t.Errorf("front-lit %d should be brighter than back-lit %d", lit.R, unlit.R)
	}
	if unlit.R == 0 {
		t.Error("ambient term missing")
	}
}

func TestCountersWired(t *testing.T) {
	r, mesh, cam := frontQuadScene(t, 32, 32)
	r.Counters = cost.NewCounters()
	r.DrawMesh(mesh, vecmath.Identity(), cam)
	if r.Counters.Triangles != 2 {
		t.Errorf("counter triangles = %d", r.Counters.Triangles)
	}
	if r.Counters.TexturedFragments != r.Stats.FragmentsTextured {
		t.Error("counter/stat mismatch")
	}
	if r.Counters.TotalAccesses() == 0 {
		t.Error("no texture accesses counted")
	}
}

func TestTraversalAffectsOrderNotResult(t *testing.T) {
	render := func(trav raster.Traversal) (uint64, [3]uint8) {
		r, mesh, cam := frontQuadScene(t, 64, 64)
		r.Traversal = trav
		r.DrawMesh(mesh, vecmath.Identity(), cam)
		c := r.FB.At(32, 32)
		return r.Stats.FragmentsTextured, [3]uint8{c.R, c.G, c.B}
	}
	base, basePix := render(raster.Traversal{})
	for _, trav := range []raster.Traversal{
		{Order: raster.ColumnMajor},
		{Order: raster.RowMajor, TileW: 8, TileH: 8},
		{Order: raster.ColumnMajor, TileW: 16, TileH: 16},
	} {
		n, pix := render(trav)
		if n != base || pix != basePix {
			t.Errorf("traversal %+v changed output: %d/%v vs %d/%v", trav, n, pix, base, basePix)
		}
	}
}

func TestValidate(t *testing.T) {
	r := NewRenderer(8, 8)
	if err := r.Validate(); err != nil {
		t.Errorf("valid renderer rejected: %v", err)
	}
	r.Width = 0
	if err := r.Validate(); err == nil {
		t.Error("zero width accepted")
	}
	r2 := NewRenderer(8, 8)
	r2.FB = nil
	if err := r2.Validate(); err == nil {
		t.Error("nil framebuffer accepted")
	}
	r3 := NewRenderer(8, 8)
	r3.Width = 16
	if err := r3.Validate(); err == nil {
		t.Error("mismatched framebuffer accepted")
	}
}

func TestTextureByID(t *testing.T) {
	r, _, _ := frontQuadScene(t, 8, 8)
	if r.TextureByID(-1) != nil || r.TextureByID(5) != nil {
		t.Error("out-of-range TexID should be nil")
	}
	if r.TextureByID(0) == nil {
		t.Error("texture 0 missing")
	}
}
