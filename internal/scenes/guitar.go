package scenes

import (
	"math"

	"texcache/internal/geom"
	"texcache/internal/pipeline"
	"texcache/internal/texture"
	"texcache/internal/vecmath"
)

// Guitar synthesizes the Guitar benchmark: a few large, flat, textured
// surfaces (guitar body, neck, background panels) that are NOT uniformly
// oriented on screen.
//
// Table 4.1 targets: 800x800 pixels, 719 triangles (large: average 1867
// px, 72x94), 8 textures (4.9 MB), repetition ~1.7. The arbitrary
// in-plane rotations mean neither horizontal nor vertical rasterization
// aligns with texture storage (Section 5.2.3).
func Guitar(scale int) *Scene {
	s := &Scene{
		Name:   "guitar",
		Width:  div(800, scale),
		Height: div(800, scale),
		Light: &pipeline.DirectionalLight{
			Dir:     vecmath.Vec3{X: 0.2, Y: -0.4, Z: -1},
			Ambient: 0.6,
			Diffuse: 0.4,
		},
	}

	// 8 textures: four 512x512 wood-like noise, four 256x256 patterns.
	for i := 0; i < 8; i++ {
		ts := texDiv(512, scale)
		if i >= 4 {
			ts = texDiv(256, scale)
		}
		var im *texture.Image
		if i%2 == 0 {
			im = texture.Noise(ts, ts, 0x6017A2+uint64(i))
		} else {
			im = texture.Gradient(ts, ts,
				texture.Texel{R: 180, G: 120, B: 60, A: 255},
				texture.Texel{R: 60, G: 30, B: 10, A: 255})
		}
		s.Mips = append(s.Mips, texture.BuildMipMap(im))
	}

	// panel builds a w x h rectangle tessellated into gx x gy quads with
	// UV repetition rep, rotated in the view plane by angle and placed at
	// (cx, cy, z).
	panel := func(w, h float64, gx, gy int, rep, angle, cx, cy, z float64, texID int) Draw {
		m := &geom.Mesh{}
		for j := 0; j < gy; j++ {
			for i := 0; i < gx; i++ {
				x0, x1 := -w/2+w*float64(i)/float64(gx), -w/2+w*float64(i+1)/float64(gx)
				y0, y1 := -h/2+h*float64(j)/float64(gy), -h/2+h*float64(j+1)/float64(gy)
				v := func(x, y float64) geom.Vertex {
					return geom.Vertex{
						Pos:    vecmath.Vec3{X: x, Y: y},
						Normal: vecmath.Vec3{Z: 1},
						UV: vecmath.Vec2{
							X: rep * (x + w/2) / w,
							Y: rep * (h/2 - y) / h,
						},
						Color: white,
					}
				}
				m.AddQuad(v(x0, y0), v(x1, y0), v(x1, y1), v(x0, y1), texID)
			}
		}
		model := vecmath.Translate(vecmath.Vec3{X: cx, Y: cy, Z: z}).
			Mul(vecmath.RotateZ(angle))
		return Draw{Mesh: m, Model: model}
	}

	// Eight panels at varied in-plane rotations, sized and tessellated to
	// land near 719 triangles of ~1867 px each. 8 panels totalling
	// 360 quads = 720 triangles.
	type p struct {
		w, h     float64
		gx, gy   int
		rep, ang float64
		cx, cy   float64
		z        float64
		tex      int
	}
	panels := []p{
		{3.4, 1.6, 10, 5, 1.6, 0.45, -0.2, 0.3, 0, 0},   // guitar body
		{0.8, 3.2, 3, 12, 1.6, 0.45, 1.3, 1.5, 0.05, 1}, // neck
		{2.0, 2.0, 7, 7, 1.6, -0.6, -1.5, -1.4, -0.3, 2},
		{2.2, 1.5, 8, 5, 1.6, 1.1, 1.7, -1.5, -0.4, 3},
		{1.7, 2.1, 6, 7, 1.6, -1.3, -1.9, 1.6, -0.5, 4},
		{1.8, 1.8, 6, 6, 1.6, 2.0, 2.0, 1.9, -0.6, 5},
		{2.4, 1.4, 8, 4, 1.6, -2.4, 0.3, -2.1, -0.7, 6},
		{1.5, 2.4, 5, 8, 1.6, 0.9, -0.3, 2.2, -0.8, 7},
		{1.9, 1.6, 7, 5, 1.6, -1.8, 1.1, 0.1, -0.9, 2},
	}
	// The zoom factor enlarges the whole composition so triangles reach
	// the paper's ~1867 px average; panel edges extending past the screen
	// keep the textured-fragment count at the Table 4.1 level.
	const zoom = 1.4
	for _, q := range panels {
		s.Draws = append(s.Draws, panel(zoom*q.w, zoom*q.h, q.gx, q.gy, q.rep, q.ang,
			zoom*q.cx, zoom*q.cy, q.z, q.tex))
	}

	s.Camera = pipeline.LookAtCamera(vecmath.Vec3{Z: 2.3}, vecmath.Vec3{}, vecmath.Vec3{Y: 1},
		math.Pi/2, 1, 0.2, 50)
	// Motion path: a slow dolly-and-pan over the still life.
	s.CameraPath = func(t float64) pipeline.Camera {
		eye := vecmath.Vec3{X: 0.3 * t, Y: 0.1 * t, Z: 2.3 - 0.2*t}
		return pipeline.LookAtCamera(eye, vecmath.Vec3{}, vecmath.Vec3{Y: 1},
			math.Pi/2, 1, 0.2, 50)
	}
	return s
}
