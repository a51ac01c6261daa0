package scenes

import (
	"math"

	"texcache/internal/geom"
	"texcache/internal/pipeline"
	"texcache/internal/texture"
	"texcache/internal/vecmath"
)

// Flight synthesizes the Flight benchmark: a flight simulator frame over
// mountainous terrain draped with large satellite-image textures.
//
// Table 4.1 targets: 1280x1024 pixels, 9152 triangles (average area 294,
// 38x20 px), 15 textures of 1024x1024 (56 MB storage), no texture
// repetition, and — the scene's defining property — large, rapid
// variations in level-of-detail from the mountainous relief, which raises
// the cold miss rate (Section 5.2.2).
func Flight(scale int) *Scene {
	const (
		patchesX, patchesZ = 5, 3   // one texture per patch -> 15 textures
		quadsX, quadsZ     = 17, 18 // per patch: 17*18*2 = 612 tris; x15 = 9180
		worldW, worldD     = 5200.0, 3200.0
		texSize            = 1024
	)
	s := &Scene{
		Name:   "flight",
		Width:  div(1280, scale),
		Height: div(1024, scale),
		Light: &pipeline.DirectionalLight{
			Dir:     vecmath.Vec3{X: -0.4, Y: -1, Z: -0.2},
			Ambient: 0.45,
			Diffuse: 0.55,
		},
	}

	// Rugged terrain: overlapping ridges plus deterministic noise. The
	// frequent slope changes fragment the Mip Map level-of-detail exactly
	// as the paper describes for this scene.
	height := func(gu, gv float64) float64 {
		h := 260*math.Sin(gu*11)*math.Cos(gv*9) +
			170*math.Sin(gu*23+1.3)*math.Sin(gv*17+0.4) +
			380*math.Sin(gu*5+gv*4)
		return 450 + h
	}

	ts := texDiv(texSize, scale)
	patchW := worldW / patchesX
	patchD := worldD / patchesZ
	texID := 0
	for pz := 0; pz < patchesZ; pz++ {
		for px := 0; px < patchesX; px++ {
			// Patch-local height function in global coordinates, so
			// terrain is continuous across patch seams.
			ox := float64(px) * patchW
			oz := float64(pz) * patchD
			h := func(u, v float64) float64 {
				return height((ox+u*patchW)/worldW, (oz+v*patchD)/worldD)
			}
			m := geom.Grid(quadsX, quadsZ, patchW, patchD, h, texID)
			s.Draws = append(s.Draws, Draw{
				Mesh:  m,
				Model: vecmath.Translate(vecmath.Vec3{X: ox, Z: oz}),
			})
			s.Mips = append(s.Mips, texture.BuildMipMap(
				texture.Noise(ts, ts, 0xF11907+uint64(texID))))
			texID++
		}
	}

	// Low flight over the terrain looking toward the horizon: nearby
	// ground is magnified, distant ridges collapse through many Mip
	// levels.
	eye := vecmath.Vec3{X: worldW * 0.5, Y: height(0.5, 0.96) + 220, Z: worldD * 0.96}
	at := vecmath.Vec3{X: worldW * 0.48, Y: 0, Z: worldD * 0.3}
	fovy := math.Pi / 2.7
	aspect := float64(s.Width) / float64(s.Height)
	s.Camera = pipeline.LookAtCamera(eye, at, vecmath.Vec3{Y: 1}, fovy, aspect, 2, 20000)
	// Motion path: fly forward at 200 m/s toward the look-at point.
	dir := at.Sub(eye).Normalize()
	s.CameraPath = func(t float64) pipeline.Camera {
		off := dir.Scale(200 * t)
		return pipeline.LookAtCamera(eye.Add(off), at.Add(off), vecmath.Vec3{Y: 1},
			fovy, aspect, 2, 20000)
	}
	return s
}
