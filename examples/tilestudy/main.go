// Tilestudy: how screen-space tiled rasterization shrinks the texture
// working set (Section 6). Builds a worst-case workload — one enormous
// textured triangle pair spanning the whole screen — and shows the
// fully-associative miss-rate curve for a range of tile sizes, including
// the degenerate extremes the paper discusses (tiny tiles converge to
// untiled; huge tiles overflow the cache).
package main

import (
	"flag"
	"fmt"
	"log"

	"texcache"
)

func main() {
	size := flag.Int("screen", 512, "screen size in pixels")
	flag.Parse()

	// A full-screen quad textured 1:1 (one texel per pixel at lambda 0+),
	// the paper's worst-case large-triangle scenario.
	arena := texcache.NewArena()
	tex, err := texcache.NewTexture(0, texcache.Noise(1024, 1024, 7),
		texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8}, arena)
	if err != nil {
		log.Fatal(err)
	}

	cacheSizes := []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
	fmt.Printf("full-screen textured quad, %dx%d, blocked 8x8, 128B lines\n\n", *size, *size)
	fmt.Printf("%-10s", "tile")
	for _, cs := range cacheSizes {
		fmt.Printf("%8dKB", cs>>10)
	}
	fmt.Println()

	for _, tile := range []int{0, 4, 8, 16, 32, 128, 512} {
		trace := texcache.NewTrace(1 << 20)
		r := texcache.NewRenderer(*size, *size)
		r.Textures = []*texcache.TextureObject{tex}
		r.Sink = trace
		r.Traversal = texcache.Traversal{Order: texcache.Horizontal, TileW: tile, TileH: tile}

		cam := texcache.LookAtCamera(
			texcache.Vec3{Z: 1}, texcache.Vec3{}, texcache.Vec3{Y: 1},
			1.5708, 1, 0.1, 10)
		r.DrawMesh(fullScreenQuad(), texcache.Identity(), cam)

		sd := texcache.NewStackDist(128)
		texcache.ReplayStream(trace, sd)
		label := "untiled"
		if tile > 0 {
			label = fmt.Sprintf("%dx%d", tile, tile)
		}
		fmt.Printf("%-10s", label)
		for _, cs := range cacheSizes {
			fmt.Printf("%8.2f%%", 100*sd.MissRateAt(cs))
		}
		fmt.Println()
	}
	fmt.Println("\nmedium tiles should push low miss rates down to much smaller caches")
}

// fullScreenQuad covers the 90-degree frustum at z=0 from a camera at
// z=1: a quad spanning [-1,1]^2 textured with ~2 texels per pixel.
func fullScreenQuad() *texcache.Mesh {
	n := texcache.Vec3{Z: 1}
	white := texcache.Vec3{X: 1, Y: 1, Z: 1}
	v := func(x, y, u, vv float64) texcache.Vertex {
		return texcache.Vertex{
			Pos: texcache.Vec3{X: x, Y: y}, Normal: n,
			UV: texcache.Vec2{X: u, Y: vv}, Color: white,
		}
	}
	m := &texcache.Mesh{}
	m.AddQuad(v(-1, -1, 0, 1), v(1, -1, 1, 1), v(1, 1, 1, 0), v(-1, 1, 0, 0), 0)
	return m
}
