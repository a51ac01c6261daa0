package scenes

import (
	"math"

	"texcache/internal/geom"
	"texcache/internal/pipeline"
	"texcache/internal/texture"
	"texcache/internal/vecmath"
)

// Goblet synthesizes the Goblet benchmark: a single texture wrapped
// around a goblet-shaped surface of revolution built from many small
// triangles.
//
// Table 4.1 targets: 800x800 pixels, 7200 triangles (small: average 41
// px, 25x14), 1 texture (1.4 MB = a 512x512 Mip Map), repetition ~1.1,
// with level-of-detail spikes where the curved surface turns edge-on to
// the viewer.
func Goblet(scale int) *Scene {
	s := &Scene{
		Name:   "goblet",
		Width:  div(800, scale),
		Height: div(800, scale),
		Light: &pipeline.DirectionalLight{
			Dir:     vecmath.Vec3{X: -0.5, Y: -0.7, Z: -0.6},
			Ambient: 0.5,
			Diffuse: 0.5,
		},
	}

	ts := texDiv(512, scale)
	s.Mips = []*texture.MipMap{texture.BuildMipMap(texture.Checker(ts, ts, 16,
		texture.Texel{R: 210, G: 180, B: 90, A: 255},
		texture.Texel{R: 120, G: 70, B: 30, A: 255}))}

	// Classic goblet profile: flared base, thin stem, wide bowl.
	profile := func(t float64) (r, y float64) {
		switch {
		case t < 0.12: // base plate
			return 0.55 - 1.5*t, t * 0.5
		case t < 0.45: // stem
			return 0.12 + 0.05*math.Sin((t-0.12)*9), 0.06 + (t-0.12)*1.2
		default: // bowl
			u := (t - 0.45) / 0.55
			return 0.16 + 0.55*math.Sin(u*math.Pi*0.62), 0.46 + u*0.9
		}
	}
	// 60 rings x 60 segments = 7200 triangles; u wraps 1.1 times around
	// the circumference for the paper's repetition factor.
	s.Draws = []Draw{{
		Mesh:  geom.Lathe(profile, 60, 60, 1.1, 0),
		Model: vecmath.Identity(),
	}}

	eye := vecmath.Vec3{X: 0.53, Y: 1.17, Z: 2.24}
	at := vecmath.Vec3{Y: 0.65}
	s.Camera = pipeline.LookAtCamera(eye, at, vecmath.Vec3{Y: 1}, math.Pi/3.2, 1, 0.1, 50)
	// Motion path: orbit the goblet at 0.4 rad/s.
	s.CameraPath = func(t float64) pipeline.Camera {
		rot := vecmath.RotateY(0.4 * t)
		return pipeline.LookAtCamera(rot.TransformPoint(eye), at, vecmath.Vec3{Y: 1},
			math.Pi/3.2, 1, 0.1, 50)
	}
	return s
}
