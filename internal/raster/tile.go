package raster

import "math"

// This file holds the rasterizer's one scan, RasterizeRect, and the
// screen tiling (Grid) and binning support (Bounds) of the tile-parallel
// render path. RasterizeRect scans a triangle inside a clip rect — the
// whole screen for a serial frame, one tile for the tile pass — and tags
// every fragment with its rank, the fragment's position in the serial
// traversal order of its triangle. Ranks let per-tile fragment streams,
// produced concurrently, be merged back into the exact sequence a
// whole-screen clip emits: within one triangle the serial order of any
// two fragments is fully determined by the traversal, so a total order
// is encodable per fragment, and a rect-restricted scan emits exactly
// the serial subsequence that lands inside the rect.

// Rect is an inclusive integer pixel rectangle. A rect with X0 > X1 or
// Y0 > Y1 is empty.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Empty reports whether the rect contains no pixels.
func (r Rect) Empty() bool { return r.X0 > r.X1 || r.Y0 > r.Y1 }

// Contains reports whether pixel (x, y) lies inside the rect.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x <= r.X1 && y >= r.Y0 && y <= r.Y1
}

// Intersect returns the intersection of two rects (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	return Rect{
		X0: maxInt(r.X0, o.X0), Y0: maxInt(r.Y0, o.Y0),
		X1: minInt(r.X1, o.X1), Y1: minInt(r.Y1, o.Y1),
	}
}

// Grid is a static decomposition of a width x height screen into
// tile x tile pixel tiles anchored at the origin; the rightmost column
// and bottom row shrink to the screen edge. Tiles are indexed row-major.
type Grid struct {
	W, H, Tile int
	NX, NY     int
}

// NewGrid builds the tiling. Tile sizes below 1 are clamped to the full
// screen (a single tile).
func NewGrid(w, h, tile int) Grid {
	if tile < 1 {
		tile = maxInt(w, h)
	}
	return Grid{
		W: w, H: h, Tile: tile,
		NX: (w + tile - 1) / tile,
		NY: (h + tile - 1) / tile,
	}
}

// NumTiles returns the tile count.
func (g Grid) NumTiles() int { return g.NX * g.NY }

// Rect returns the pixel rect of tile i.
func (g Grid) Rect(i int) Rect {
	tx, ty := i%g.NX, i/g.NX
	return Rect{
		X0: tx * g.Tile, Y0: ty * g.Tile,
		X1: minInt((tx+1)*g.Tile-1, g.W-1),
		Y1: minInt((ty+1)*g.Tile-1, g.H-1),
	}
}

// TileRange returns the inclusive tile-coordinate range overlapping a
// (screen-clamped) pixel rect, for binning.
func (g Grid) TileRange(r Rect) (tx0, ty0, tx1, ty1 int) {
	return r.X0 / g.Tile, r.Y0 / g.Tile, r.X1 / g.Tile, r.Y1 / g.Tile
}

// Bounds returns the clamped integer pixel bounding box RasterizeRect
// scans for the triangle — the pixels whose centers can be covered — and
// whether it is non-empty. It does not reject degenerate triangles;
// RasterizeRect emits nothing for those.
func Bounds(v0, v1, v2 Vert, width, height int) (Rect, bool) {
	return bounds(&v0, &v1, &v2, width, height)
}

// bounds is Bounds over the vertices in place, so the scan's setup does
// not copy them again.
func bounds(v0, v1, v2 *Vert, width, height int) (Rect, bool) {
	minX := math.Min(v0.X, math.Min(v1.X, v2.X))
	maxX := math.Max(v0.X, math.Max(v1.X, v2.X))
	minY := math.Min(v0.Y, math.Min(v1.Y, v2.Y))
	maxY := math.Max(v0.Y, math.Max(v1.Y, v2.Y))
	b := Rect{
		X0: clampInt(int(math.Ceil(minX-0.5)), 0, width-1),
		X1: clampInt(int(math.Floor(maxX-0.5)), 0, width-1),
		Y0: clampInt(int(math.Ceil(minY-0.5)), 0, height-1),
		Y1: clampInt(int(math.Floor(maxY-0.5)), 0, height-1),
	}
	return b, !b.Empty()
}

// Rank packing. Untiled scans order fragments by (major, minor) pixel
// coordinate, so 32 bits per axis always suffice. Statically tiled scans
// order by (tile major, tile minor, pixel major, pixel minor), packed as
// 18+18+14+14 bits — enough for screens up to 16384 pixels on a side,
// far beyond the paper's 1280x1024. Hilbert ranks are the raw curve
// distance over the bounding box's enclosing power-of-two square.
const (
	rankPixBits  = 14
	rankTileBits = 18
)

// RasterizeRect scans the triangle (v0, v1, v2) over a width x height
// screen using the given traversal and emits the covered fragments
// inside clip, each tagged with its rank in the serial traversal order.
// texW/texH are the base-level texture dimensions used for level-of-
// detail; pass zero for untextured triangles. A clip covering the screen
// emits the whole serial sequence, in ascending rank. Restricting the
// scan never changes a fragment's values: coverage and shading depend
// only on the pixel and the triangle setup, and the span searches are
// exact on any sub-interval. Consequently, for any partition of the
// screen into rects, concatenating the per-rect streams in rank order
// reproduces the whole-screen sequence bit for bit.
func RasterizeRect(v0, v1, v2 Vert, width, height int, texW, texH int, trav Traversal, clip Rect, emit func(*Fragment, uint64)) {
	t, ok := setup(v0, v1, v2)
	if !ok {
		return
	}
	bbox, ok := bounds(&v0, &v1, &v2, width, height)
	if !ok {
		return
	}
	tw, th := float64(texW), float64(texH)
	var frag Fragment

	if trav.Order == HilbertOrder {
		// Peano-Hilbert path over the bounding box's enclosing square
		// (footnote 1); the curve subsumes tiling. The curve distance is
		// the rank, so any clip rect's stream is the serial one's
		// subsequence in rank order.
		scanHilbertRanked(bbox, clip, func(px, py int, d uint64) {
			if w0, w1, w2, in := t.inside(float64(px)+0.5, float64(py)+0.5); in {
				t.shade(px, py, w0, w1, w2, tw, th, &frag)
				emit(&frag, d)
			}
		})
		return
	}

	visible := bbox.Intersect(clip)
	if visible.Empty() {
		return
	}

	// scanRectRanked walks the rows (or columns) of a sub-rect as spans:
	// binary search finds the covered interval, then only covered pixels
	// are shaded — the incremental span processing of a classical
	// scanline rasterizer, with coverage decided by the identical edge
	// predicate either way. A fragment's rank is base | major<<shift |
	// minor, its pixel's major and minor coordinates under the order.
	scanRectRanked := func(r Rect, base uint64, shift uint) {
		if trav.Order == RowMajor {
			for py := r.Y0; py <= r.Y1; py++ {
				cy := float64(py) + 0.5
				row := base | uint64(py)<<shift
				lo, hi := t.spanX(py, r.X0, r.X1)
				for px := lo; px <= hi; px++ {
					if w0, w1, w2, in := t.inside(float64(px)+0.5, cy); in {
						t.shade(px, py, w0, w1, w2, tw, th, &frag)
						emit(&frag, row|uint64(px))
					}
				}
			}
			return
		}
		for px := r.X0; px <= r.X1; px++ {
			cx := float64(px) + 0.5
			col := base | uint64(px)<<shift
			lo, hi := t.spanY(px, r.Y0, r.Y1)
			for py := lo; py <= hi; py++ {
				if w0, w1, w2, in := t.inside(cx, float64(py)+0.5); in {
					t.shade(px, py, w0, w1, w2, tw, th, &frag)
					emit(&frag, col|uint64(py))
				}
			}
		}
	}

	if !trav.Tiled() {
		scanRectRanked(visible, 0, 32)
		return
	}

	// Static traversal tiling: the serial order visits the traversal
	// tiles overlapping the bounding box in order, scanning each
	// tile-bbox intersection. Only the rank depends on the visit order,
	// so it is enough to scan the clipped portion of every such tile
	// with a rank lexicographic in (tile major, tile minor, pixel major,
	// pixel minor).
	tx0, tx1 := bbox.X0/trav.TileW, bbox.X1/trav.TileW
	ty0, ty1 := bbox.Y0/trav.TileH, bbox.Y1/trav.TileH
	scanTileRanked := func(tx, ty int) {
		tile := Rect{
			X0: tx * trav.TileW, Y0: ty * trav.TileH,
			X1: (tx+1)*trav.TileW - 1, Y1: (ty+1)*trav.TileH - 1,
		}
		r := tile.Intersect(bbox).Intersect(clip)
		if r.Empty() {
			return
		}
		major, minor := ty, tx
		if trav.Order != RowMajor {
			major, minor = tx, ty
		}
		scanRectRanked(r, uint64(major)<<(rankTileBits+2*rankPixBits)|uint64(minor)<<(2*rankPixBits), rankPixBits)
	}
	// Tiles are visited in the traversal's order, so each clip stream is
	// emitted in ascending rank.
	if trav.Order == RowMajor {
		for ty := ty0; ty <= ty1; ty++ {
			for tx := tx0; tx <= tx1; tx++ {
				scanTileRanked(tx, ty)
			}
		}
	} else {
		for tx := tx0; tx <= tx1; tx++ {
			for ty := ty0; ty <= ty1; ty++ {
				scanTileRanked(tx, ty)
			}
		}
	}
}
