package raster

// Hilbert-order traversal. Footnote 1 of the paper observes that "the
// screen rasterization path that would lead to the smallest working set
// would follow a Peano-Hilbert order since this would traverse a region
// of the texture in a spatially contiguous manner". This file provides
// that path as a third traversal mode so the claim can be tested.

// HilbertOrder scans pixels along a Peano-Hilbert space-filling curve
// covering the triangle's bounding box. It ignores Traversal tiling: the
// curve is itself a recursive tiling.
const HilbertOrder Order = 2

// The curve of a 2s x 2s square visits its four s x s quadrants in the
// order below, each along the s x s curve under a symmetry of the
// square: the first quadrant's curve is transposed, the last one's is
// transposed and rotated by 180 degrees (anti-transposed), and the
// middle two are unchanged. Those symmetries commute, so a descent
// carries the composition as two flags, combined by exclusive or.
var hilbertQuads = [4]struct {
	qx, qy     int  // quadrant position, in units of s
	swap, flip bool // transpose, rotate by 180 degrees
}{
	{0, 0, true, false},
	{0, 1, false, false},
	{1, 1, false, false},
	{1, 0, true, true},
}

// hilbertWalk visits the cells of r, a rect inside the side x side grid
// (side a power of two), in the order of that grid's Hilbert curve,
// passing each cell's distance along the curve. It descends the curve by
// quadrant: each aligned square of the descent holds one contiguous run
// of distances, its own sub-curve, so skipping a square that misses r
// drops only cells outside r, and the visits are exactly the full
// curve's, filtered to r. Its cost follows the cells and the perimeter
// of r, not side*side. It returns the number of curve nodes (aligned
// squares, cells included) it examined.
func hilbertWalk(side int, r Rect, visit func(x, y int, d uint64)) int {
	if r.Empty() {
		return 0
	}
	nodes := 0
	// walk examines the s x s square at (x0, y0) whose sub-curve starts
	// at distance d and runs under the symmetry (swap, flip).
	var walk func(x0, y0, s int, swap, flip bool, d uint64)
	walk = func(x0, y0, s int, swap, flip bool, d uint64) {
		nodes++
		if x0 > r.X1 || y0 > r.Y1 || x0+s <= r.X0 || y0+s <= r.Y0 {
			return
		}
		if s == 1 {
			visit(x0, y0, d)
			return
		}
		h := s / 2
		for _, q := range hilbertQuads {
			qx, qy := q.qx, q.qy
			if swap {
				qx, qy = qy, qx
			}
			if flip {
				qx, qy = 1-qx, 1-qy
			}
			walk(x0+qx*h, y0+qy*h, h, swap != q.swap, flip != q.flip, d)
			d += uint64(h * h)
		}
	}
	walk(0, 0, side, false, false, 0)
	return nodes
}

// scanHilbertRanked visits the pixels of bbox that fall inside clip in
// Peano-Hilbert order, passing each pixel's distance along the curve
// (over the bounding box's enclosing power-of-two square) as its rank.
// Only the quadrants of that curve that meet the clip rect are walked.
func scanHilbertRanked(bbox, clip Rect, visit func(px, py int, d uint64)) {
	w := bbox.X1 - bbox.X0 + 1
	h := bbox.Y1 - bbox.Y0 + 1
	if w <= 0 || h <= 0 {
		return
	}
	side := 1
	for side < w || side < h {
		side <<= 1
	}
	r := bbox.Intersect(clip)
	r = Rect{X0: r.X0 - bbox.X0, Y0: r.Y0 - bbox.Y0, X1: r.X1 - bbox.X0, Y1: r.Y1 - bbox.Y0}
	hilbertWalk(side, r, func(x, y int, d uint64) {
		visit(bbox.X0+x, bbox.Y0+y, d)
	})
}
