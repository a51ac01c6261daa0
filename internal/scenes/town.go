package scenes

import (
	"math"

	"texcache/internal/geom"
	"texcache/internal/pipeline"
	"texcache/internal/texture"
	"texcache/internal/vecmath"
)

// Town synthesizes the Town benchmark: a street of texture-mapped
// building facades.
//
// Table 4.1 targets: 1280x1024 pixels, 5317 triangles (average 1149 px,
// 67x23), 51 smaller textures (4.7 MB storage), repetition factor ~2.9,
// and — the scene's defining property — textures that appear upright in
// the image, which makes vertical rasterization the worst case for the
// row-major nonblocked representation (Section 5.2.3).
func Town(scale int) *Scene {
	const (
		buildingsX, buildingsZ = 10, 7 // 70 buildings
		numTextures            = 51
		texSize                = 128
	)
	s := &Scene{
		Name:     "town",
		Width:    div(1280, scale),
		Height:   div(1024, scale),
		CullBack: true,
		Light: &pipeline.DirectionalLight{
			Dir:     vecmath.Vec3{X: -0.3, Y: -1, Z: -0.5},
			Ambient: 0.5,
			Diffuse: 0.5,
		},
	}

	ts := texDiv(texSize, scale)
	for i := 0; i < numTextures; i++ {
		var im *texture.Image
		switch i % 3 {
		case 0:
			im = texture.Brick(ts, ts)
		case 1:
			im = texture.Checker(ts, ts, 8,
				texture.Texel{R: 200, G: 190, B: 160, A: 255},
				texture.Texel{R: 90, G: 80, B: 70, A: 255})
		default:
			im = texture.Gradient(ts, ts,
				texture.Texel{R: 150, G: 150, B: 170, A: 255},
				texture.Texel{R: 60, G: 60, B: 90, A: 255})
		}
		s.Mips = append(s.Mips, texture.BuildMipMap(im))
	}

	// wall builds one vertically oriented facade tessellated into wide
	// 2x5 quads (20 triangles), with UV repetition ~1.7x1.7 = 2.9 texels
	// accessed per unique texel (the paper's Town repetition factor).
	wall := func(w, h float64, texID int) *geom.Mesh {
		m := &geom.Mesh{}
		const nx, ny = 2, 5
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				x0 := -w/2 + w*float64(i)/nx
				x1 := -w/2 + w*float64(i+1)/nx
				y0 := h * float64(j) / ny
				y1 := h * float64(j+1) / ny
				uv := func(x, y float64) vecmath.Vec2 {
					return vecmath.Vec2{
						X: 1.7 * (x + w/2) / w,
						Y: 1.7 * (h - y) / h, // v runs down the facade: upright on screen
					}
				}
				v := func(x, y float64) geom.Vertex {
					return geom.Vertex{
						Pos:    vecmath.Vec3{X: x, Y: y},
						Normal: vecmath.Vec3{Z: 1},
						UV:     uv(x, y),
						Color:  white,
					}
				}
				m.AddQuad(v(x0, y0), v(x1, y0), v(x1, y1), v(x0, y1), texID)
			}
		}
		return m
	}

	// A building: four facades around a box footprint; triangles grouped
	// per building so same-texture triangles are drawn consecutively
	// (long texture runlengths, Section 5.2.3).
	const streetX, streetZ = 34.0, 44.0
	rng := newRand(0x70714)
	texID := 0
	tris := 0
	const maxTris = 5280 - 18 // leave room for the ground mesh
	for bz := 0; bz < buildingsZ && tris < maxTris; bz++ {
		for bx := 0; bx < buildingsX && tris < maxTris; bx++ {
			w := 20 + 10*rng.float()
			d := 14 + 8*rng.float()
			h := 24 + 26*rng.float()
			cx := (float64(bx) - buildingsX/2) * streetX
			cz := -float64(bz) * streetZ
			tid := texID % numTextures
			texID++

			f := wall(w, h, tid)
			bmesh := &geom.Mesh{}
			// Front (+Z), back (-Z), left (-X), right (+X).
			bmesh.Append(f.Transform(vecmath.Translate(vecmath.Vec3{X: cx, Z: cz + d/2})))
			bmesh.Append(f.Transform(vecmath.Translate(vecmath.Vec3{X: cx, Z: cz - d/2}).Mul(vecmath.RotateY(math.Pi))))
			side := wall(d, h, tid)
			bmesh.Append(side.Transform(vecmath.Translate(vecmath.Vec3{X: cx - w/2, Z: cz}).Mul(vecmath.RotateY(-math.Pi / 2))))
			bmesh.Append(side.Transform(vecmath.Translate(vecmath.Vec3{X: cx + w/2, Z: cz}).Mul(vecmath.RotateY(math.Pi / 2))))
			tris += bmesh.Len()
			s.Draws = append(s.Draws, Draw{Mesh: bmesh, Model: vecmath.Identity()})
		}
	}

	// Ground: a road plane under the town, textured with heavy repetition.
	ground := geom.Grid(3, 3, 420, 420, func(u, v float64) float64 { return 0 }, 0).
		UVScale(10, 10)
	s.Draws = append(s.Draws, Draw{
		Mesh:  ground,
		Model: vecmath.Translate(vecmath.Vec3{X: -210, Y: -0.2, Z: 70 - 420}),
	})

	// Street-level camera, level with the horizon (no roll/pitch), so the
	// vertical texture axes of the facades stay vertical on screen.
	eye := vecmath.Vec3{X: 3, Y: 11, Z: 48}
	at := vecmath.Vec3{X: 0, Y: 10, Z: -260}
	fovy := math.Pi / 2.6
	aspect := float64(s.Width) / float64(s.Height)
	s.Camera = pipeline.LookAtCamera(eye, at, vecmath.Vec3{Y: 1}, fovy, aspect, 1, 4000)
	// Motion path: drive down the street at 15 m/s.
	s.CameraPath = func(t float64) pipeline.Camera {
		off := vecmath.Vec3{Z: -15 * t}
		return pipeline.LookAtCamera(eye.Add(off), at.Add(off), vecmath.Vec3{Y: 1},
			fovy, aspect, 1, 4000)
	}
	return s
}

// rand32 is a tiny deterministic xorshift PRNG so scene synthesis is
// reproducible and independent of math/rand version changes.
type rand32 struct{ state uint64 }

func newRand(seed uint64) *rand32 {
	if seed == 0 {
		seed = 1
	}
	return &rand32{state: seed}
}

func (r *rand32) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

// float returns a uniform value in [0, 1).
func (r *rand32) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
