package raster

import (
	"math/bits"
	"math/rand"
	"testing"
)

// The oracle: the full-curve scan that hilbertWalk replaced. It decodes
// every distance of the bounding box's enclosing power-of-two square
// with hilbertD2XY and keeps the cells inside bbox and clip, so it pays
// side*side decodes for any clip.

// hilbertD2XY converts a distance d along the Hilbert curve of a 2^k x
// 2^k grid (n = 2^k) into (x, y) coordinates. Standard bit-twiddling
// walk from the least significant quadrant upward.
func hilbertD2XY(n int, d int) (x, y int) {
	rx, ry := 0, 0
	t := d
	for s := 1; s < n; s *= 2 {
		rx = 1 & (t / 2)
		ry = 1 & (t ^ rx)
		x, y = hilbertRot(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// hilbertRot rotates/flips a quadrant appropriately.
func hilbertRot(n, x, y, rx, ry int) (int, int) {
	if ry == 0 {
		if rx == 1 {
			x = n - 1 - x
			y = n - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// hilbertCell is one visited pixel and its curve distance.
type hilbertCell struct {
	x, y int
	d    uint64
}

// oracleHilbert returns the cells of bbox inside clip in full-curve
// order, and the number of curve distances it decoded.
func oracleHilbert(bbox, clip Rect) ([]hilbertCell, int) {
	w, h := bbox.X1-bbox.X0+1, bbox.Y1-bbox.Y0+1
	if w <= 0 || h <= 0 {
		return nil, 0
	}
	side := 1
	for side < w || side < h {
		side <<= 1
	}
	var out []hilbertCell
	for d := 0; d < side*side; d++ {
		x, y := hilbertD2XY(side, d)
		if x < w && y < h && clip.Contains(bbox.X0+x, bbox.Y0+y) {
			out = append(out, hilbertCell{bbox.X0 + x, bbox.Y0 + y, uint64(d)})
		}
	}
	return out, side * side
}

// checkHilbertWalk fails t unless scanHilbertRanked emits the oracle's
// (x, y, d) sequence for (bbox, clip), and scanHilbert emits the pixels
// of scanHilbertRanked(bbox, bbox).
func checkHilbertWalk(t *testing.T, bbox, clip Rect) {
	t.Helper()
	want, _ := oracleHilbert(bbox, clip)
	var got []hilbertCell
	scanHilbertRanked(bbox, clip, func(px, py int, d uint64) {
		got = append(got, hilbertCell{px, py, d})
	})
	if len(got) != len(want) {
		t.Fatalf("bbox %+v clip %+v: walk visited %d cells, full curve %d", bbox, clip, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bbox %+v clip %+v: visit %d is %+v, full curve has %+v", bbox, clip, i, got[i], want[i])
		}
	}

	var ranked, plain []hilbertCell
	scanHilbertRanked(bbox, bbox, func(px, py int, _ uint64) {
		ranked = append(ranked, hilbertCell{x: px, y: py})
	})
	scanHilbert(bbox, func(px, py int) {
		plain = append(plain, hilbertCell{x: px, y: py})
	})
	if len(plain) != len(ranked) {
		t.Fatalf("bbox %+v: scanHilbert visited %d pixels, the unclipped ranked scan %d", bbox, len(plain), len(ranked))
	}
	for i := range ranked {
		if plain[i] != ranked[i] {
			t.Fatalf("bbox %+v: scanHilbert pixel %d is %+v, the ranked scan has %+v", bbox, i, plain[i], ranked[i])
		}
	}
}

// TestHilbertWalkMatchesFullCurve checks the pruned walk against the
// full-curve oracle on random (bbox, clip) pairs: empty, disjoint,
// one-pixel and partly outside clips included.
func TestHilbertWalkMatchesFullCurve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 3000; n++ {
		bbox := Rect{X0: rng.Intn(200), Y0: rng.Intn(200)}
		bbox.X1 = bbox.X0 + rng.Intn(48)
		bbox.Y1 = bbox.Y0 + rng.Intn(48)
		clip := Rect{X0: bbox.X0 + rng.Intn(64) - 8, Y0: bbox.Y0 + rng.Intn(64) - 8}
		clip.X1 = clip.X0 + rng.Intn(64) - 4
		clip.Y1 = clip.Y0 + rng.Intn(64) - 4
		checkHilbertWalk(t, bbox, clip)
	}
}

// FuzzHilbertWalk differentially fuzzes the pruned walk against the
// full-curve oracle. The bbox is up to 300 pixels a side at any offset;
// the clip is drawn around it, so it may be empty, disjoint, a single
// pixel, or partly outside the bbox.
func FuzzHilbertWalk(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(63), uint16(63), int16(0), int16(0), int16(63), int16(63))          // clip = bbox
	f.Add(uint16(10), uint16(20), uint16(0), uint16(999), int16(0), int16(0), int16(0), int16(299))        // one column
	f.Add(uint16(5), uint16(5), uint16(40), uint16(30), int16(7), int16(9), int16(7), int16(9))            // one pixel
	f.Add(uint16(5), uint16(5), uint16(40), uint16(30), int16(50), int16(0), int16(60), int16(10))         // disjoint
	f.Add(uint16(5), uint16(5), uint16(40), uint16(30), int16(20), int16(20), int16(10), int16(10))        // empty clip
	f.Add(uint16(100), uint16(60), uint16(299), uint16(150), int16(-30), int16(64), int16(63), int16(200)) // partly outside
	f.Fuzz(func(t *testing.T, bx, by, bw, bh uint16, cx0, cy0, cx1, cy1 int16) {
		bbox := Rect{X0: int(bx % 4096), Y0: int(by % 4096)}
		bbox.X1 = bbox.X0 + int(bw%300)
		bbox.Y1 = bbox.Y0 + int(bh%300)
		clip := Rect{
			X0: bbox.X0 + int(cx0%400), Y0: bbox.Y0 + int(cy0%400),
			X1: bbox.X0 + int(cx1%400), Y1: bbox.Y0 + int(cy1%400),
		}
		checkHilbertWalk(t, bbox, clip)
	})
}

// TestHilbertWalkCost counts the curve nodes the walk examines; it times
// nothing. A level of the descent with squares of side s meets at most
// (w/s+2)(h/s+2) of them for a w x h rect, and the walk examines the
// four children of each square it meets. Summed over the log2(side)
// levels above the cells (sum of 1/s^2 <= 1/3, of 1/s <= 1), that is at
// most 1 + (4/3)*cells + 4*perimeter + 16*log2(side) nodes. The test
// allows 1 + 2*cells + 4*perimeter + 16*log2(side), which is below
// 4*(cells + perimeter*log2(side)) for these rects, and demands that the
// full-curve oracle, which decodes all side*side distances, exceed it a
// hundredfold.
func TestHilbertWalkCost(t *testing.T) {
	for _, tc := range []struct {
		name       string
		bbox, clip Rect
	}{
		{"1x1000", Rect{X0: 0, Y0: 0, X1: 0, Y1: 999}, Rect{X0: 0, Y0: 0, X1: 4095, Y1: 4095}},
		// The clip straddles both centre lines of the curve, so all four
		// top-level quadrants meet it.
		{"2048x2048 clip 64x64", Rect{X0: 0, Y0: 0, X1: 2047, Y1: 2047}, Rect{X0: 992, Y0: 992, X1: 1055, Y1: 1055}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.bbox.Intersect(tc.clip)
			w, h := r.X1-r.X0+1, r.Y1-r.Y0+1
			side := 1
			for side < tc.bbox.X1-tc.bbox.X0+1 || side < tc.bbox.Y1-tc.bbox.Y0+1 {
				side <<= 1
			}
			cells, perimeter, levels := w*h, 2*(w+h), bits.Len(uint(side))-1
			bound := 1 + 2*cells + 4*perimeter + 16*levels

			visited := 0
			nodes := hilbertWalk(side, r, func(int, int, uint64) { visited++ })
			if visited != cells {
				t.Fatalf("walk visited %d cells, want %d", visited, cells)
			}
			if nodes > bound {
				t.Errorf("walk examined %d nodes, bound %d", nodes, bound)
			}
			_, decoded := oracleHilbert(tc.bbox, tc.clip)
			if decoded < 100*bound {
				t.Errorf("full curve decoded %d distances, not 100x the bound %d", decoded, bound)
			}
			t.Logf("walk %d nodes, bound %d, full curve %d decodes", nodes, bound, decoded)
		})
	}
}

func TestHilbertD2XYIsBijective(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		seen := make(map[[2]int]bool, n*n)
		for d := 0; d < n*n; d++ {
			x, y := hilbertD2XY(n, d)
			if x < 0 || x >= n || y < 0 || y >= n {
				t.Fatalf("n=%d d=%d: (%d,%d) out of range", n, d, x, y)
			}
			if seen[[2]int{x, y}] {
				t.Fatalf("n=%d d=%d: (%d,%d) repeated", n, d, x, y)
			}
			seen[[2]int{x, y}] = true
		}
		if len(seen) != n*n {
			t.Fatalf("n=%d: covered %d cells", n, len(seen))
		}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// The defining property: consecutive curve points are 4-neighbors.
	const n = 32
	px, py := hilbertD2XY(n, 0)
	for d := 1; d < n*n; d++ {
		x, y := hilbertD2XY(n, d)
		dist := abs(x-px) + abs(y-py)
		if dist != 1 {
			t.Fatalf("d=%d: jump from (%d,%d) to (%d,%d)", d, px, py, x, y)
		}
		px, py = x, y
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestHilbertTraversalSameCoverage(t *testing.T) {
	v0 := vert(1, 2, 0, 0)
	v1 := vert(30, 5, 1, 0)
	v2 := vert(10, 28, 0, 1)
	ref := map[[2]int]Fragment{}
	for _, f := range collect(v0, v1, v2, 32, 32, Traversal{Order: RowMajor}) {
		ref[[2]int{f.X, f.Y}] = f
	}
	got := collect(v0, v1, v2, 32, 32, Traversal{Order: HilbertOrder})
	if len(got) != len(ref) {
		t.Fatalf("hilbert covered %d fragments, row-major %d", len(got), len(ref))
	}
	for _, f := range got {
		if r, ok := ref[[2]int{f.X, f.Y}]; !ok || r != f {
			t.Fatalf("hilbert fragment differs at (%d,%d)", f.X, f.Y)
		}
	}
}

func TestHilbertOrderLocality(t *testing.T) {
	// Consecutive fragments along the Hilbert path over a full-square
	// triangle pair stay close: mean |dx|+|dy| must be far below the
	// row-major full-width jumps... for a single large triangle the
	// curve's step distance is 1 except when skipping outside pixels.
	frags := collect(vert(0, 0, 0, 0), vert(32, 0, 1, 0), vert(0, 32, 0, 1), 32, 32,
		Traversal{Order: HilbertOrder})
	if len(frags) == 0 {
		t.Fatal("no fragments")
	}
	sum, n := 0, 0
	for i := 1; i < len(frags); i++ {
		sum += abs(frags[i].X-frags[i-1].X) + abs(frags[i].Y-frags[i-1].Y)
		n++
	}
	mean := float64(sum) / float64(n)
	if mean > 2.5 {
		t.Errorf("hilbert mean step = %v, want near 1", mean)
	}
}

func TestOrderStringHilbert(t *testing.T) {
	if HilbertOrder.String() != "hilbert" {
		t.Error("hilbert order name wrong")
	}
}
