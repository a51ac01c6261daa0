// Flyover: the workload the paper's introduction motivates — a flight
// simulator draping large satellite textures over terrain. Renders the
// Flight benchmark, sweeps cache sizes, and prints the memory-bandwidth
// table a hardware architect would use to size the on-chip texture cache.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"texcache"
)

func main() {
	scale := flag.Int("scale", 4, "resolution divisor (1 = the paper's 1280x1024)")
	flag.Parse()

	scene, err := texcache.SceneByNameChecked("flight", *scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flight scene: %dx%d, %d triangles, %d textures (%.1f MB)\n",
		scene.Width, scene.Height, scene.Triangles(), len(scene.Mips),
		float64(scene.TextureStorageBytes())/(1<<20))

	// One rendering pass records the texel address trace; every cache
	// configuration replays it.
	trace, r, err := scene.Trace(
		texcache.LayoutSpec{Kind: texcache.PaddedBlocked, BlockW: 8, PadBlocks: 4},
		scene.DefaultTraversal())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frame: %d textured fragments, %d texel accesses\n\n",
		r.Stats.FragmentsTextured, trace.Len())

	model := texcache.DefaultPerfModel()
	fmt.Printf("%-10s %10s %12s %14s %10s\n",
		"cache", "miss rate", "DRAM MB/s", "vs uncached", "misses")
	for _, size := range []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		c, err := texcache.NewCache(texcache.CacheConfig{
			SizeBytes: size, LineBytes: 128, Ways: 2})
		if err != nil {
			log.Fatal(err)
		}
		texcache.ReplayStream(trace, c.Sink())
		s := c.Stats()
		fmt.Printf("%-10s %9.2f%% %12.0f %13.1fx %10d\n",
			fmtSize(size), 100*s.MissRate(),
			model.BandwidthBytesPerSecond(s.MissRate(), 128)/1e6,
			model.BandwidthReduction(s.MissRate(), 128),
			s.Misses)
	}
	fmt.Printf("\nuncached requirement: %.0f MB/s at %.0fM fragments/s\n",
		model.UncachedBandwidthBytesPerSecond()/1e6,
		model.PeakFragmentsPerSecond()/1e6)

	f, err := os.Create("flyover.png")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := r.FB.WritePNG(f); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote flyover.png")
}

func fmtSize(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMB", n>>20)
	}
	return fmt.Sprintf("%dKB", n>>10)
}
