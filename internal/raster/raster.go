// Package raster implements the fragment generator's rasterization stage:
// half-plane (edge-function) triangle rasterization with perspective-
// correct attribute interpolation, analytic level-of-detail derivatives
// for Mip Map selection, and the three screen traversal orders the paper
// studies — horizontal (row major), vertical (column major), and
// statically tiled (Section 6).
package raster

import (
	"math"
)

// Order selects the scanning direction, both within a tile and between
// tiles.
type Order int

const (
	// RowMajor scans x fastest (the paper's "horizontal rasterization").
	RowMajor Order = iota
	// ColumnMajor scans y fastest ("vertical rasterization").
	ColumnMajor
)

// String names the order as the figures do.
func (o Order) String() string {
	switch o {
	case ColumnMajor:
		return "vertical"
	case HilbertOrder:
		return "hilbert"
	default:
		return "horizontal"
	}
}

// Traversal describes how the screen is walked during rasterization.
// TileW/TileH of zero mean untiled scanning across the whole triangle;
// otherwise the screen is statically decomposed into TileW x TileH pixel
// tiles anchored at the origin, tiles are visited in Order, and pixels
// within each tile are scanned in Order (Figure 6.1b).
type Traversal struct {
	Order        Order
	TileW, TileH int
}

// Tiled reports whether a static screen tiling is in effect.
func (t Traversal) Tiled() bool { return t.TileW > 0 && t.TileH > 0 }

// Fragment is one covered screen pixel with its interpolated attributes,
// ready for texturing: NDC depth Z, perspective-correct normalized
// texture coordinates (U, V), Mip Map level-of-detail Lambda
// (log2 of texels per pixel), and the shading color.
type Fragment struct {
	X, Y    int
	Z       float64
	U, V    float64
	Lambda  float64
	R, G, B float64
}

// Vert is a post-projection vertex prepared by the pipeline: screen-space
// position, NDC depth, and attributes pre-divided by clip-space w for
// perspective-correct interpolation.
type Vert struct {
	X, Y       float64 // screen pixel coordinates
	Z          float64 // NDC depth in [-1, 1]
	InvW       float64 // 1 / w_clip
	UW, VW     float64 // u/w, v/w
	RW, GW, BW float64 // shade color / w
}

// tri holds the per-triangle setup: edge functions and attribute
// gradients, all linear in screen space.
type tri struct {
	// Edge functions E_i(x,y) = eA[i]*x + eB[i]*y + eC[i], positive
	// inside for all three after orientation normalization.
	eA, eB, eC [3]float64
	topLeft    [3]bool
	invArea    float64

	v0, v1, v2 Vert

	// Gradients of the linearly interpolated quantities.
	gxD, gyD float64 // d(1/w)/dx, /dy
	gxU, gyU float64 // d(u/w)/dx, /dy
	gxV, gyV float64 // d(v/w)/dx, /dy
}

// setup builds the triangle's edge equations and gradients. Returns false
// for degenerate (zero-area) triangles.
func setup(v0, v1, v2 Vert) (tri, bool) {
	area := (v1.X-v0.X)*(v2.Y-v0.Y) - (v1.Y-v0.Y)*(v2.X-v0.X)
	if area == 0 {
		return tri{}, false
	}
	if area < 0 {
		// Normalize to counter-clockwise so edge functions are positive
		// inside.
		v1, v2 = v2, v1
		area = -area
	}
	t := tri{v0: v0, v1: v1, v2: v2, invArea: 1 / area}

	edges := [3][2]Vert{{v1, v2}, {v2, v0}, {v0, v1}}
	for i, e := range edges {
		a, b := e[0], e[1]
		t.eA[i] = a.Y - b.Y
		t.eB[i] = b.X - a.X
		t.eC[i] = a.X*b.Y - a.Y*b.X
		// Top-left fill rule: an edge is "top" if horizontal and going
		// left (for CCW), "left" if it goes downward in a y-down screen.
		t.topLeft[i] = (a.Y == b.Y && b.X < a.X) || (b.Y > a.Y)
	}

	// Gradients of barycentric weights: dwi/dx = eA[i]*invArea, so the
	// gradient of any linearly interpolated attribute f with vertex
	// values f0, f1, f2 is sum(fi * eA[i]) * invArea.
	grad := func(f0, f1, f2 float64) (gx, gy float64) {
		gx = (f0*t.eA[0] + f1*t.eA[1] + f2*t.eA[2]) * t.invArea
		gy = (f0*t.eB[0] + f1*t.eB[1] + f2*t.eB[2]) * t.invArea
		return
	}
	t.gxD, t.gyD = grad(v0.InvW, v1.InvW, v2.InvW)
	t.gxU, t.gyU = grad(v0.UW, v1.UW, v2.UW)
	t.gxV, t.gyV = grad(v0.VW, v1.VW, v2.VW)
	return t, true
}

// inside evaluates coverage at pixel-center (cx, cy), applying the
// top-left rule on exact edge hits so abutting triangles never double-
// cover a pixel.
func (t *tri) inside(cx, cy float64) (w0, w1, w2 float64, ok bool) {
	var e [3]float64
	for i := 0; i < 3; i++ {
		e[i] = t.eA[i]*cx + t.eB[i]*cy + t.eC[i]
		if e[i] < 0 || (e[i] == 0 && !t.topLeft[i]) {
			return 0, 0, 0, false
		}
	}
	return e[0] * t.invArea, e[1] * t.invArea, e[2] * t.invArea, true
}

// edgePass evaluates one edge's coverage predicate at (cx, cy), the same
// expression and comparison inside uses, so span search and per-pixel
// testing can never disagree.
func (t *tri) edgePass(i int, cx, cy float64) bool {
	e := t.eA[i]*cx + t.eB[i]*cy + t.eC[i]
	return e > 0 || (e == 0 && t.topLeft[i])
}

// spanX returns the inclusive pixel range within [lo, hi] whose centers
// on row py pass all three edges. Each edge predicate is monotone along
// the row (linear in x with fixed sign of slope, and IEEE multiply/add
// are monotone), so the passing set per edge is a half-interval found by
// binary search on the exact predicate; the triangle span is the
// intersection. Returns lo > hi when the row is empty.
func (t *tri) spanX(py, lo, hi int) (int, int) {
	cy := float64(py) + 0.5
	for i := 0; i < 3 && lo <= hi; i++ {
		pass := func(px int) bool { return t.edgePass(i, float64(px)+0.5, cy) }
		switch a := t.eA[i]; {
		case a > 0: // monotone non-decreasing: passing suffix
			if !pass(hi) {
				return 1, 0
			}
			if !pass(lo) {
				l, h := lo, hi // pass(l) false, pass(h) true
				for h-l > 1 {
					if m := (l + h) / 2; pass(m) {
						h = m
					} else {
						l = m
					}
				}
				lo = h
			}
		case a < 0: // monotone non-increasing: passing prefix
			if !pass(lo) {
				return 1, 0
			}
			if !pass(hi) {
				l, h := lo, hi // pass(l) true, pass(h) false
				for h-l > 1 {
					if m := (l + h) / 2; pass(m) {
						l = m
					} else {
						h = m
					}
				}
				hi = l
			}
		default: // constant along the row
			if !pass(lo) {
				return 1, 0
			}
		}
	}
	return lo, hi
}

// spanY is spanX for a column: the predicate is monotone in y with the
// sign of eB.
func (t *tri) spanY(px, lo, hi int) (int, int) {
	cx := float64(px) + 0.5
	for i := 0; i < 3 && lo <= hi; i++ {
		pass := func(py int) bool { return t.edgePass(i, cx, float64(py)+0.5) }
		switch b := t.eB[i]; {
		case b > 0:
			if !pass(hi) {
				return 1, 0
			}
			if !pass(lo) {
				l, h := lo, hi
				for h-l > 1 {
					if m := (l + h) / 2; pass(m) {
						h = m
					} else {
						l = m
					}
				}
				lo = h
			}
		case b < 0:
			if !pass(lo) {
				return 1, 0
			}
			if !pass(hi) {
				l, h := lo, hi
				for h-l > 1 {
					if m := (l + h) / 2; pass(m) {
						l = m
					} else {
						h = m
					}
				}
				hi = l
			}
		default:
			if !pass(lo) {
				return 1, 0
			}
		}
	}
	return lo, hi
}

// shade computes the fragment attributes at pixel (px, py) with
// barycentric weights (w0, w1, w2).
func (t *tri) shade(px, py int, w0, w1, w2, texW, texH float64, f *Fragment) {
	d := w0*t.v0.InvW + w1*t.v1.InvW + w2*t.v2.InvW
	invD := 1 / d
	nU := w0*t.v0.UW + w1*t.v1.UW + w2*t.v2.UW
	nV := w0*t.v0.VW + w1*t.v1.VW + w2*t.v2.VW

	f.X, f.Y = px, py
	f.Z = w0*t.v0.Z + w1*t.v1.Z + w2*t.v2.Z
	f.U = nU * invD
	f.V = nV * invD
	f.R = (w0*t.v0.RW + w1*t.v1.RW + w2*t.v2.RW) * invD
	f.G = (w0*t.v0.GW + w1*t.v1.GW + w2*t.v2.GW) * invD
	f.B = (w0*t.v0.BW + w1*t.v1.BW + w2*t.v2.BW) * invD

	if texW > 0 {
		// Perspective-correct screen-space derivatives of the texel
		// coordinates via the quotient rule: u = nU/d, so
		// du/dx = (nU' * d - nU * d') / d^2.
		invD2 := invD * invD
		dudx := (t.gxU*d - nU*t.gxD) * invD2 * texW
		dudy := (t.gyU*d - nU*t.gyD) * invD2 * texW
		dvdx := (t.gxV*d - nV*t.gxD) * invD2 * texH
		dvdy := (t.gyV*d - nV*t.gyD) * invD2 * texH
		rho := math.Max(math.Hypot(dudx, dvdx), math.Hypot(dudy, dvdy))
		if rho > 0 {
			f.Lambda = math.Log2(rho)
		} else {
			f.Lambda = math.Inf(-1)
		}
	} else {
		f.Lambda = 0
	}
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
