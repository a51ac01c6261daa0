package exp

import (
	"context"
	"fmt"
	"math"

	"texcache/internal/cache"
	"texcache/internal/geom"
	"texcache/internal/pipeline"
	"texcache/internal/raster"
	"texcache/internal/report"
	"texcache/internal/texture"
	"texcache/internal/vecmath"
)

func init() {
	register(Experiment{
		ID: "worstcase",
		Title: "Worst-case working set vs texture orientation " +
			"(the Section 5.2.3 analysis)",
		Run: runWorstCase,
	})
}

// runWorstCase builds the scenario of the Section 5.2.3 worst-case
// analysis — one huge textured surface spanning the screen, with the
// texture at a controlled orientation — and measures the working-set
// curve of the nonblocked representation under horizontal rasterization.
// Expected shape: at 0 degrees the scanline direction matches row-major
// storage and the working set stays near one line; at 90 degrees every
// scanline streams down texture columns, and the working set approaches
// the analytic bound of line size x screen height; 45 degrees lands
// between. A blocked reference shows the orientation dependence vanish.
func runWorstCase(ctx context.Context, cfg Config, rep report.Reporter) error {
	screen := 1024 / cfg.scale()
	if screen < 64 {
		screen = 64
	}
	ts := 1024
	for s := cfg.scale(); s > 1; s /= 2 {
		ts /= 2
	}
	if ts < 64 {
		ts = 64
	}

	rep.Note("full-screen textured quad, %dx%d screen, %dx%d texture, 1:1 sampling",
		screen, screen, ts, ts)
	rep.Note("analytic bound (Section 5.2.3): 32B line x %d screen rows = %s",
		screen, cache.FormatSize(32*screen))
	rep.Note("")

	for _, spec := range []texture.LayoutSpec{
		{Kind: texture.NonBlockedKind},
		{Kind: texture.BlockedKind, BlockW: 4},
	} {
		rep.Note("--- %s representation ---", spec.Kind)
		beginCurve(rep, fmt.Sprintf("worstcase-%s", spec.Kind), "texture angle")
		for _, deg := range []float64{0, 45, 90} {
			if err := ctx.Err(); err != nil {
				return err
			}
			tr, err := traceRotatedQuad(screen, ts, deg, spec)
			if err != nil {
				return err
			}
			sd := cache.NewStackDist(32)
			cache.ReplayStream(tr, sd)
			curveRow(rep, fmt.Sprintf("%.0f deg", deg), sd.Curve(curveSizes()))
		}
		rep.Note("")
	}
	rep.Note("%s", "paper: the nonblocked representation is sensitive to the direction of")
	rep.Note("%s", "texture accesses; blocking removes the orientation dependence")
	return nil
}

// traceRotatedQuad renders one full-screen quad whose texture axes are
// rotated by deg degrees in the view plane, sampling roughly one texel
// per pixel, and returns the texel address trace.
func traceRotatedQuad(screen, texSize int, deg float64, spec texture.LayoutSpec) (*cache.Trace, error) {
	arena := texture.NewArena()
	tex, err := texture.NewTexture(0, texture.Checker(texSize, texSize, 8,
		texture.Texel{R: 230, G: 220, B: 200, A: 255},
		texture.Texel{R: 60, G: 70, B: 90, A: 255}), spec, arena)
	if err != nil {
		return nil, err
	}

	r := pipeline.NewRenderer(screen, screen)
	r.Textures = []*texture.Texture{tex}
	trace := cache.NewTrace(screen * screen * 4)
	r.Sink = trace
	r.Traversal = raster.Traversal{Order: raster.RowMajor}

	// The quad is oversized so the rotated surface still covers the
	// whole screen; UVs scale so one texel maps to about one pixel
	// (lambda ~ 0, bilinear), the regime of the paper's analysis.
	side := 2.0 * math.Sqrt2
	uvScale := side / 2 * float64(screen) / float64(texSize)
	white := vecmath.Vec3{X: 1, Y: 1, Z: 1}
	v := func(x, y, u, vv float64) geom.Vertex {
		return geom.Vertex{
			Pos:    vecmath.Vec3{X: x, Y: y},
			Normal: vecmath.Vec3{Z: 1},
			UV:     vecmath.Vec2{X: u * uvScale, Y: vv * uvScale},
			Color:  white,
		}
	}
	m := &geom.Mesh{}
	m.AddQuad(
		v(-side/2, -side/2, 0, 1), v(side/2, -side/2, 1, 1),
		v(side/2, side/2, 1, 0), v(-side/2, side/2, 0, 0), 0)

	rot := vecmath.RotateZ(deg * math.Pi / 180)
	cam := pipeline.LookAtCamera(vecmath.Vec3{Z: 1}, vecmath.Vec3{}, vecmath.Vec3{Y: 1},
		math.Pi/2, 1, 0.1, 10)
	r.DrawMesh(m, rot, cam)
	return trace, nil
}
