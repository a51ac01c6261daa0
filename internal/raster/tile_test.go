package raster

import (
	"math/rand"
	"sort"
	"testing"
)

// partitionTraversals is the traversal matrix the tile-parallel
// equivalence properties are checked against: every order, untiled and
// statically tiled, including non-square tiles that do not divide the
// render-tile size evenly.
var partitionTraversals = map[string]Traversal{
	"horizontal":        {Order: RowMajor},
	"vertical":          {Order: ColumnMajor},
	"hilbert":           {Order: HilbertOrder},
	"tiled8-horizontal": {Order: RowMajor, TileW: 8, TileH: 8},
	"tiled16x8-vert":    {Order: ColumnMajor, TileW: 16, TileH: 8},
	"tiled24x8-horiz":   {Order: RowMajor, TileW: 24, TileH: 8},
}

// randTri returns a random triangle covering a plausible screen area,
// with attributes varied enough that any reordering of fragments would
// change the captured values.
func randTri(rng *rand.Rand, w, h int) (Vert, Vert, Vert) {
	v := func() Vert {
		return Vert{
			X:    rng.Float64()*float64(w+20) - 10,
			Y:    rng.Float64()*float64(h+20) - 10,
			Z:    rng.Float64()*2 - 1,
			InvW: 0.2 + rng.Float64(),
			UW:   rng.Float64(),
			VW:   rng.Float64(),
			RW:   rng.Float64(),
			GW:   rng.Float64(),
			BW:   rng.Float64(),
		}
	}
	return v(), v(), v()
}

type rankedFrag struct {
	f    Fragment
	rank uint64
}

// TestRasterizeRectPartition is the core tile-parallel correctness
// property: for any partition of the screen into rects, collecting each
// rect's RasterizeRect fragments and sorting the union by rank must
// reproduce Rasterize's emission sequence exactly — same fragments,
// same values, same order.
func TestRasterizeRectPartition(t *testing.T) {
	const w, h = 97, 61 // deliberately not multiples of any tile size
	rng := rand.New(rand.NewSource(42))
	for name, trav := range partitionTraversals {
		t.Run(name, func(t *testing.T) {
			for n := 0; n < 40; n++ {
				v0, v1, v2 := randTri(rng, w, h)

				var serial []Fragment
				Rasterize(v0, v1, v2, w, h, 64, 64, trav, func(f *Fragment) {
					serial = append(serial, *f)
				})

				for _, tile := range []int{16, 23, 64} {
					grid := NewGrid(w, h, tile)
					var merged []rankedFrag
					for i := 0; i < grid.NumTiles(); i++ {
						RasterizeRect(v0, v1, v2, w, h, 64, 64, trav, grid.Rect(i),
							func(f *Fragment, rank uint64) {
								merged = append(merged, rankedFrag{f: *f, rank: rank})
							})
					}
					sort.SliceStable(merged, func(a, b int) bool {
						return merged[a].rank < merged[b].rank
					})
					if len(merged) != len(serial) {
						t.Fatalf("tri %d tile %d: %d fragments, serial has %d",
							n, tile, len(merged), len(serial))
					}
					for i := range serial {
						if merged[i].f != serial[i] {
							t.Fatalf("tri %d tile %d: fragment %d differs:\nserial  %+v\nmerged  %+v (rank %d)",
								n, tile, i, serial[i], merged[i].f, merged[i].rank)
						}
						if i > 0 && merged[i].rank == merged[i-1].rank {
							t.Fatalf("tri %d tile %d: duplicate rank %d at %d",
								n, tile, merged[i].rank, i)
						}
					}
				}
			}
		})
	}
}

// TestRasterizeRectFullScreenIsSerial checks the degenerate partition:
// one rect covering the screen must emit the serial sequence directly,
// already in ascending rank order.
func TestRasterizeRectFullScreenIsSerial(t *testing.T) {
	const w, h = 80, 64
	rng := rand.New(rand.NewSource(7))
	for name, trav := range partitionTraversals {
		t.Run(name, func(t *testing.T) {
			for n := 0; n < 10; n++ {
				v0, v1, v2 := randTri(rng, w, h)
				var serial []Fragment
				Rasterize(v0, v1, v2, w, h, 64, 64, trav, func(f *Fragment) {
					serial = append(serial, *f)
				})
				var got []Fragment
				last := uint64(0)
				first := true
				RasterizeRect(v0, v1, v2, w, h, 64, 64, trav, Rect{0, 0, w - 1, h - 1},
					func(f *Fragment, rank uint64) {
						if !first && rank <= last {
							t.Fatalf("tri %d: rank not increasing: %d after %d", n, rank, last)
						}
						first, last = false, rank
						got = append(got, *f)
					})
				if len(got) != len(serial) {
					t.Fatalf("tri %d: %d fragments, serial has %d", n, len(got), len(serial))
				}
				for i := range serial {
					if got[i] != serial[i] {
						t.Fatalf("tri %d: fragment %d differs", n, i)
					}
				}
			}
		})
	}
}

// TestRasterizeRectEmitsNothingUncovered: a degenerate triangle, one
// entirely off the screen and one whose box misses the clip emit no
// fragment, in any traversal.
func TestRasterizeRectEmitsNothingUncovered(t *testing.T) {
	const w, h = 16, 16
	screen := Rect{X1: w - 1, Y1: h - 1}
	for name, trav := range partitionTraversals {
		for _, c := range []struct {
			what       string
			v0, v1, v2 Vert
			clip       Rect
		}{
			{"point", vert(5, 5, 0, 0), vert(5, 5, 0, 0), vert(5, 5, 0, 0), screen},
			{"collinear", vert(0, 0, 0, 0), vert(4, 4, 0, 0), vert(8, 8, 0, 0), screen},
			{"off screen", vert(20, 2, 0, 0), vert(30, 4, 1, 0), vert(25, 12, 0, 1), screen},
			{"outside clip", vert(1, 1, 0, 0), vert(6, 1, 1, 0), vert(1, 6, 0, 1), Rect{X0: 8, Y0: 8, X1: 15, Y1: 15}},
		} {
			n := 0
			RasterizeRect(c.v0, c.v1, c.v2, w, h, 16, 16, trav, c.clip, func(*Fragment, uint64) { n++ })
			if n != 0 {
				t.Errorf("%s, %s: %d fragments, want none", name, c.what, n)
			}
		}
	}
}

func TestGrid(t *testing.T) {
	g := NewGrid(100, 50, 32)
	if g.NX != 4 || g.NY != 2 || g.NumTiles() != 8 {
		t.Fatalf("grid = %+v", g)
	}
	// Tiles must partition the screen exactly.
	seen := map[[2]int]int{}
	for i := 0; i < g.NumTiles(); i++ {
		r := g.Rect(i)
		if r.Empty() {
			t.Fatalf("tile %d empty: %+v", i, r)
		}
		for y := r.Y0; y <= r.Y1; y++ {
			for x := r.X0; x <= r.X1; x++ {
				seen[[2]int{x, y}]++
			}
		}
	}
	if len(seen) != 100*50 {
		t.Fatalf("tiles cover %d pixels, want %d", len(seen), 100*50)
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("pixel %v covered %d times", p, n)
		}
	}
	// TileRange over the full screen must span the whole grid.
	tx0, ty0, tx1, ty1 := g.TileRange(Rect{0, 0, 99, 49})
	if tx0 != 0 || ty0 != 0 || tx1 != 3 || ty1 != 1 {
		t.Fatalf("TileRange = %d,%d..%d,%d", tx0, ty0, tx1, ty1)
	}
	// A degenerate tile size falls back to one tile.
	if g := NewGrid(64, 64, 0); g.NumTiles() != 1 {
		t.Fatalf("zero tile size: %d tiles", g.NumTiles())
	}
}

func TestBoundsMatchesRasterize(t *testing.T) {
	const w, h = 64, 64
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 50; n++ {
		v0, v1, v2 := randTri(rng, w, h)
		bbox, ok := Bounds(v0, v1, v2, w, h)
		any := false
		Rasterize(v0, v1, v2, w, h, 0, 0, Traversal{}, func(f *Fragment) {
			any = true
			if !bbox.Contains(f.X, f.Y) {
				t.Fatalf("tri %d: fragment (%d,%d) outside bounds %+v", n, f.X, f.Y, bbox)
			}
		})
		if any && !ok {
			t.Fatalf("tri %d: Bounds empty but fragments emitted", n)
		}
	}
}
