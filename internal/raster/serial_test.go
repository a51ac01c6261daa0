package raster

import "math"

// The reference: the serial scan the program ran before RasterizeRect
// became its only scan. It walks a triangle's whole clamped bounding box
// in traversal order with no clip and no ranks. The raster and tile
// tests compare RasterizeRect against it, fragment for fragment; a
// serial frame runs RasterizeRect with the whole screen as its clip.

// Rasterize scans the triangle (v0, v1, v2) over a width x height screen
// using the given traversal, invoking emit for every covered pixel.
// texW/texH are the base-level texture dimensions used for level-of-
// detail; pass zero for untextured triangles.
func Rasterize(v0, v1, v2 Vert, width, height int, texW, texH int, trav Traversal, emit func(*Fragment)) {
	t, ok := setup(v0, v1, v2)
	if !ok {
		return
	}

	// Integer pixel bounds: pixels whose centers can be covered.
	minX := math.Min(v0.X, math.Min(v1.X, v2.X))
	maxX := math.Max(v0.X, math.Max(v1.X, v2.X))
	minY := math.Min(v0.Y, math.Min(v1.Y, v2.Y))
	maxY := math.Max(v0.Y, math.Max(v1.Y, v2.Y))
	x0 := clampInt(int(math.Ceil(minX-0.5)), 0, width-1)
	x1 := clampInt(int(math.Floor(maxX-0.5)), 0, width-1)
	y0 := clampInt(int(math.Ceil(minY-0.5)), 0, height-1)
	y1 := clampInt(int(math.Floor(maxY-0.5)), 0, height-1)
	if x0 > x1 || y0 > y1 {
		return
	}

	tw, th := float64(texW), float64(texH)
	var frag Fragment
	if trav.Order == HilbertOrder {
		// Peano-Hilbert path over the bounding box (footnote 1); the
		// curve subsumes tiling.
		scanHilbert(Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}, func(px, py int) {
			if w0, w1, w2, in := t.inside(float64(px)+0.5, float64(py)+0.5); in {
				t.shade(px, py, w0, w1, w2, tw, th, &frag)
				emit(&frag)
			}
		})
		return
	}
	// scanRect walks rows (or columns) as spans: binary search finds the
	// covered interval, then only covered pixels are shaded — the
	// incremental span processing of a classical scanline rasterizer,
	// with coverage decided by the identical edge predicate either way.
	scanRect := func(rx0, ry0, rx1, ry1 int) {
		if trav.Order == RowMajor {
			for py := ry0; py <= ry1; py++ {
				cy := float64(py) + 0.5
				lo, hi := t.spanX(py, rx0, rx1)
				for px := lo; px <= hi; px++ {
					if w0, w1, w2, in := t.inside(float64(px)+0.5, cy); in {
						t.shade(px, py, w0, w1, w2, tw, th, &frag)
						emit(&frag)
					}
				}
			}
			return
		}
		for px := rx0; px <= rx1; px++ {
			cx := float64(px) + 0.5
			lo, hi := t.spanY(px, ry0, ry1)
			for py := lo; py <= hi; py++ {
				if w0, w1, w2, in := t.inside(cx, float64(py)+0.5); in {
					t.shade(px, py, w0, w1, w2, tw, th, &frag)
					emit(&frag)
				}
			}
		}
	}

	if !trav.Tiled() {
		scanRect(x0, y0, x1, y1)
		return
	}

	// Static screen tiling: visit the tiles overlapping the bounding box
	// in traversal order, scanning the intersection of each tile with the
	// box.
	tx0, tx1 := x0/trav.TileW, x1/trav.TileW
	ty0, ty1 := y0/trav.TileH, y1/trav.TileH
	scanTile := func(tx, ty int) {
		rx0 := maxInt(x0, tx*trav.TileW)
		rx1 := minInt(x1, (tx+1)*trav.TileW-1)
		ry0 := maxInt(y0, ty*trav.TileH)
		ry1 := minInt(y1, (ty+1)*trav.TileH-1)
		scanRect(rx0, ry0, rx1, ry1)
	}
	if trav.Order == RowMajor {
		for ty := ty0; ty <= ty1; ty++ {
			for tx := tx0; tx <= tx1; tx++ {
				scanTile(tx, ty)
			}
		}
	} else {
		for tx := tx0; tx <= tx1; tx++ {
			for ty := ty0; ty <= ty1; ty++ {
				scanTile(tx, ty)
			}
		}
	}
}

// scanHilbert visits the pixels of bbox in Peano-Hilbert order over the
// smallest enclosing power-of-two square anchored at its corner.
func scanHilbert(bbox Rect, visit func(px, py int)) {
	scanHilbertRanked(bbox, bbox, func(px, py int, _ uint64) { visit(px, py) })
}
