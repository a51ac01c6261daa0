package pipeline

import (
	"math"
	"math/rand"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/cost"
	"texcache/internal/geom"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/vecmath"
)

// clutterScene builds a renderer plus a mesh of many small random
// textured triangles, so triangles overlap in depth, straddle tile
// boundaries and arrive in an order the depth test cares about.
func clutterScene(t testing.TB, w, h, tris int) (*geom.Mesh, Camera, func() *Renderer) {
	t.Helper()
	mesh := &geom.Mesh{}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < tris; i++ {
		cx := rng.Float64()*2.4 - 1.2
		cy := rng.Float64()*2.4 - 1.2
		cz := rng.Float64()*0.8 - 0.4
		var v [3]geom.Vertex
		for j := range v {
			v[j] = geom.Vertex{
				Pos: vecmath.Vec3{
					X: cx + rng.Float64()*0.5 - 0.25,
					Y: cy + rng.Float64()*0.5 - 0.25,
					Z: cz + rng.Float64()*0.1,
				},
				Normal: vecmath.Vec3{Z: 1},
				UV:     vecmath.Vec2{X: rng.Float64() * 3, Y: rng.Float64() * 3},
				Color:  vecmath.Vec3{X: 1, Y: 1, Z: 1},
			}
		}
		mesh.Add(v[0], v[1], v[2], 0)
	}
	cam := LookAtCamera(vecmath.Vec3{Z: 2}, vecmath.Vec3{}, vecmath.Vec3{Y: 1},
		math.Pi/2, float64(w)/float64(h), 0.1, 10)
	newRenderer := func() *Renderer {
		r := NewRenderer(w, h)
		arena := texture.NewArena()
		tex, err := texture.NewTexture(0, texture.Checker(64, 64, 8,
			texture.Texel{R: 255, G: 255, B: 255, A: 255}, texture.Texel{R: 40, G: 80, B: 120, A: 255}),
			texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}, arena)
		if err != nil {
			t.Fatal(err)
		}
		r.Textures = []*texture.Texture{tex}
		return r
	}
	return mesh, cam, newRenderer
}

// renderClutter draws the mesh and finishes the frame, returning the
// renderer and its recorded trace.
func renderClutter(mesh *geom.Mesh, cam Camera, r *Renderer) *cache.Trace {
	tr := cache.NewTrace(0)
	r.Sink = tr
	r.DrawMesh(mesh, vecmath.Identity(), cam)
	r.Finish()
	return tr
}

// TestTileParallelMatchesSerial is the pipeline-level equivalence
// check: trace, framebuffer (color and depth), statistics and fetch
// counts must all be identical between the serial path and the tile
// pass at several worker counts and tile sizes, for each traversal.
func TestTileParallelMatchesSerial(t *testing.T) {
	const w, h = 120, 90
	mesh, cam, newRenderer := clutterScene(t, w, h, 120)
	travs := map[string]raster.Traversal{
		"horizontal": {Order: raster.RowMajor},
		"vertical":   {Order: raster.ColumnMajor},
		"hilbert":    {Order: raster.HilbertOrder},
		"tiled8":     {Order: raster.RowMajor, TileW: 8, TileH: 8},
	}
	for name, trav := range travs {
		t.Run(name, func(t *testing.T) {
			serial := newRenderer()
			serial.Traversal = trav
			serialTrace := renderClutter(mesh, cam, serial)
			if serialTrace.Len() == 0 {
				t.Fatal("serial trace empty")
			}
			for _, workers := range []int{2, 3, 8} {
				for _, tilePx := range []int{0, 16, 33} {
					par := newRenderer()
					par.Traversal = trav
					par.RenderWorkers = workers
					par.tilePx = tilePx
					parTrace := renderClutter(mesh, cam, par)

					if len(parTrace.Addrs) != len(serialTrace.Addrs) {
						t.Fatalf("workers=%d tile=%d: %d addrs, serial %d",
							workers, tilePx, len(parTrace.Addrs), len(serialTrace.Addrs))
					}
					for i := range serialTrace.Addrs {
						if parTrace.Addrs[i] != serialTrace.Addrs[i] {
							t.Fatalf("workers=%d tile=%d: addr %d = %#x, serial %#x",
								workers, tilePx, i, parTrace.Addrs[i], serialTrace.Addrs[i])
						}
					}
					if par.Stats != serial.Stats {
						t.Fatalf("workers=%d tile=%d: stats %+v, serial %+v",
							workers, tilePx, par.Stats, serial.Stats)
					}
					if par.TexelFetches() != serial.TexelFetches() {
						t.Fatalf("workers=%d tile=%d: fetches %d, serial %d",
							workers, tilePx, par.TexelFetches(), serial.TexelFetches())
					}
					for i := range serial.FB.Color {
						if par.FB.Color[i] != serial.FB.Color[i] || par.FB.Depth[i] != serial.FB.Depth[i] {
							t.Fatalf("workers=%d tile=%d: framebuffer differs at pixel %d",
								workers, tilePx, i)
						}
					}
				}
			}
		})
	}
}

// recordingSink is a generic (non-*cache.Trace) Sink, forcing the merge
// through the per-address interface path.
type recordingSink struct{ addrs []uint64 }

func (s *recordingSink) Access(a uint64) { s.addrs = append(s.addrs, a) }

// TestTileParallelGenericSink checks stream identity through the
// interface emission path, which the bulk *cache.Trace fast path
// bypasses.
func TestTileParallelGenericSink(t *testing.T) {
	const w, h = 96, 64
	mesh, cam, newRenderer := clutterScene(t, w, h, 60)

	serial := newRenderer()
	var want recordingSink
	serial.Sink = &want
	serial.DrawMesh(mesh, vecmath.Identity(), cam)
	serial.Finish()

	par := newRenderer()
	par.RenderWorkers = 4
	par.tilePx = 16
	var got recordingSink
	par.Sink = &got
	par.DrawMesh(mesh, vecmath.Identity(), cam)
	par.Finish()

	if len(got.addrs) != len(want.addrs) {
		t.Fatalf("%d addrs, serial %d", len(got.addrs), len(want.addrs))
	}
	for i := range want.addrs {
		if got.addrs[i] != want.addrs[i] {
			t.Fatalf("addr %d = %#x, serial %#x", i, got.addrs[i], want.addrs[i])
		}
	}
}

// TestTileParallelMaskMatchesSerial checks the parallel path under a
// FragmentMask (pure pixel predicate, so it stays parallel-eligible).
func TestTileParallelMaskMatchesSerial(t *testing.T) {
	const w, h = 96, 64
	mesh, cam, newRenderer := clutterScene(t, w, h, 60)
	mask := func(x, y int) bool { return (x/8+y/8)%2 == 0 }

	serial := newRenderer()
	serial.FragmentMask = mask
	serialTrace := renderClutter(mesh, cam, serial)

	par := newRenderer()
	par.FragmentMask = mask
	par.RenderWorkers = 3
	parTrace := renderClutter(mesh, cam, par)

	if serialTrace.Len() == 0 {
		t.Fatal("masked serial trace empty")
	}
	if len(parTrace.Addrs) != len(serialTrace.Addrs) {
		t.Fatalf("%d addrs, serial %d", len(parTrace.Addrs), len(serialTrace.Addrs))
	}
	for i := range serialTrace.Addrs {
		if parTrace.Addrs[i] != serialTrace.Addrs[i] {
			t.Fatalf("addr %d differs", i)
		}
	}
	if par.Stats != serial.Stats {
		t.Fatalf("stats %+v, serial %+v", par.Stats, serial.Stats)
	}
}

// TestOrderedConsumersStaySerial pins the fallback rule: frames with an
// OnAccess or Counters consumer render serially even when RenderWorkers
// asks for parallelism, because those observe the stream while it is
// produced.
func TestOrderedConsumersStaySerial(t *testing.T) {
	const w, h = 64, 64
	mesh, cam, newRenderer := clutterScene(t, w, h, 20)

	r := newRenderer()
	r.RenderWorkers = 4
	r.OnAccess = func(texture.AccessEvent) {}
	r.DrawMesh(mesh, vecmath.Identity(), cam)
	if len(r.deferred) != 0 {
		t.Fatal("OnAccess frame deferred triangles for the tile pass")
	}

	r = newRenderer()
	r.RenderWorkers = 4
	r.Counters = &cost.Counters{}
	r.DrawMesh(mesh, vecmath.Identity(), cam)
	if len(r.deferred) != 0 {
		t.Fatal("Counters frame deferred triangles for the tile pass")
	}
	if r.Stats.FragmentsShaded == 0 {
		t.Fatal("serial fallback rendered nothing")
	}

	// And a worker count of one is the serial path outright.
	r = newRenderer()
	r.RenderWorkers = 1
	r.DrawMesh(mesh, vecmath.Identity(), cam)
	if len(r.deferred) != 0 {
		t.Fatal("single-worker frame deferred triangles")
	}
}

// TestFinishIsIdempotent checks Finish on a serial or already-finished
// frame is a no-op.
func TestFinishIsIdempotent(t *testing.T) {
	const w, h = 64, 64
	mesh, cam, newRenderer := clutterScene(t, w, h, 20)
	r := newRenderer()
	r.RenderWorkers = 2
	tr := cache.NewTrace(0)
	r.Sink = tr
	r.DrawMesh(mesh, vecmath.Identity(), cam)
	r.Finish()
	n := tr.Len()
	if n == 0 {
		t.Fatal("no addresses")
	}
	stats := r.Stats
	r.Finish()
	if tr.Len() != n || r.Stats != stats {
		t.Fatal("second Finish changed the frame")
	}
}

// skewScene builds the adversarial load-imbalance frame: one giant quad
// covering the whole screen (two triangles binned to every tile) drawn
// first, then many tiny triangles crowded into one corner tile, then a
// light scatter elsewhere. One tile carries far more work than the rest,
// so the overlapped merge must wait on the straggler for the early
// triangles while the remaining tiles finish and drain around it.
func skewScene(t testing.TB, w, h int) (*geom.Mesh, Camera, func() *Renderer) {
	t.Helper()
	_, cam, newRenderer := clutterScene(t, w, h, 1)
	mesh := &geom.Mesh{}
	vert := func(x, y, z, u, v float64) geom.Vertex {
		return geom.Vertex{
			Pos:    vecmath.Vec3{X: x, Y: y, Z: z},
			Normal: vecmath.Vec3{Z: 1},
			UV:     vecmath.Vec2{X: u, Y: v},
			Color:  vecmath.Vec3{X: 1, Y: 1, Z: 1},
		}
	}
	// Fullscreen backdrop: overlaps every tile at depth 0.45.
	mesh.AddQuad(
		vert(-3, -3, 0.45, 0, 0), vert(3, -3, 0.45, 4, 0),
		vert(3, 3, 0.45, 4, 4), vert(-3, 3, 0.45, 0, 4), 0)
	rng := rand.New(rand.NewSource(42))
	tiny := func(cx, cy float64) {
		var v [3]geom.Vertex
		for j := range v {
			v[j] = vert(
				cx+rng.Float64()*0.06-0.03,
				cy+rng.Float64()*0.06-0.03,
				rng.Float64()*0.4-0.2,
				rng.Float64()*2, rng.Float64()*2)
		}
		mesh.Add(v[0], v[1], v[2], 0)
	}
	for i := 0; i < 300; i++ { // crowd the top-left corner tile
		tiny(-1.1+rng.Float64()*0.2, 0.9+rng.Float64()*0.2)
	}
	for i := 0; i < 40; i++ { // light scatter across the rest
		tiny(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return mesh, cam, newRenderer
}

// TestTileSkewDeterminism is the stress case for the pipelined merge:
// with one tile holding an order of magnitude more triangles than any
// other and a backdrop binned everywhere, the parallel trace, image and
// statistics must still match the serial frame exactly at every worker
// count and tile size.
func TestTileSkewDeterminism(t *testing.T) {
	const w, h = 128, 96
	mesh, cam, newRenderer := skewScene(t, w, h)

	serial := newRenderer()
	serialTrace := renderClutter(mesh, cam, serial)
	if serialTrace.Len() == 0 {
		t.Fatal("serial trace empty")
	}

	for _, workers := range []int{2, 4, 16} {
		for _, tilePx := range []int{0, 16} {
			par := newRenderer()
			par.RenderWorkers = workers
			par.tilePx = tilePx
			parTrace := renderClutter(mesh, cam, par)

			if len(parTrace.Addrs) != len(serialTrace.Addrs) {
				t.Fatalf("workers=%d tile=%d: %d addrs, serial %d",
					workers, tilePx, len(parTrace.Addrs), len(serialTrace.Addrs))
			}
			for i := range serialTrace.Addrs {
				if parTrace.Addrs[i] != serialTrace.Addrs[i] {
					t.Fatalf("workers=%d tile=%d: addr %d = %#x, serial %#x",
						workers, tilePx, i, parTrace.Addrs[i], serialTrace.Addrs[i])
				}
			}
			if par.Stats != serial.Stats {
				t.Fatalf("workers=%d tile=%d: stats %+v, serial %+v",
					workers, tilePx, par.Stats, serial.Stats)
			}
			for i := range serial.FB.Color {
				if par.FB.Color[i] != serial.FB.Color[i] || par.FB.Depth[i] != serial.FB.Depth[i] {
					t.Fatalf("workers=%d tile=%d: framebuffer differs at pixel %d",
						workers, tilePx, i)
				}
			}
		}
	}
}
