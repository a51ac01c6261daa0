// Cachedesign: explore the texture-cache design space the way Section 7
// does — sweep size, line size and associativity over all four benchmark
// scenes, score each organization by its worst-case memory bandwidth,
// and report the design an architect would pick under an on-chip SRAM
// budget.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"texcache"
)

type design struct {
	cfg       texcache.CacheConfig
	worstMBps float64 // worst-case bandwidth across scenes
	perScene  map[string]float64
}

func main() {
	scale := flag.Int("scale", 4, "resolution divisor")
	budget := flag.Int("budget", 32<<10, "on-chip SRAM budget in bytes")
	flag.Parse()

	// Record one trace per (scene, block size): the layout's block must
	// match the candidate line size (the Section 5.3.2 rule), so line
	// sweeps need a trace per block.
	type key struct {
		scene  string
		blockW int
	}
	traces := map[key]*texcache.Trace{}
	for _, name := range texcache.SceneNames() {
		scene, err := texcache.SceneByNameChecked(name, *scale)
		if err != nil {
			log.Fatal(err)
		}
		for _, bw := range []int{4, 8} {
			tr, _, err := scene.Trace(
				texcache.LayoutSpec{Kind: texcache.PaddedBlocked, BlockW: bw, PadBlocks: 4},
				scene.DefaultTraversal())
			if err != nil {
				log.Fatal(err)
			}
			traces[key{name, bw}] = tr
		}
	}

	model := texcache.DefaultPerfModel()
	blockFor := map[int]int{64: 4, 128: 8}
	var candidates []design
	for size := 4 << 10; size <= *budget; size <<= 1 {
		for _, line := range []int{64, 128} {
			for _, ways := range []int{1, 2, 4} {
				d := design{
					cfg:      texcache.CacheConfig{SizeBytes: size, LineBytes: line, Ways: ways},
					perScene: map[string]float64{},
				}
				for _, name := range texcache.SceneNames() {
					c, err := texcache.NewCache(d.cfg)
					if err != nil {
						log.Fatal(err)
					}
					texcache.ReplayStream(traces[key{name, blockFor[line]}], c.Sink())
					mbps := model.BandwidthBytesPerSecond(c.Stats().MissRate(), line) / 1e6
					d.perScene[name] = mbps
					if mbps > d.worstMBps {
						d.worstMBps = mbps
					}
				}
				candidates = append(candidates, d)
			}
		}
	}

	// Rank by worst-case bandwidth: the paper's robustness criterion
	// ("guaranteed performance under worst-case conditions").
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].worstMBps < candidates[j].worstMBps
	})

	fmt.Printf("texture cache design space at scale %d (budget %dKB):\n\n", *scale, *budget>>10)
	fmt.Printf("%-32s %12s   %s\n", "organization", "worst MB/s", "per-scene MB/s")
	for i, d := range candidates {
		if i >= 10 {
			break
		}
		fmt.Printf("%-32s %12.0f   ", d.cfg, d.worstMBps)
		for _, name := range texcache.SceneNames() {
			fmt.Printf("%s=%.0f ", name, d.perScene[name])
		}
		fmt.Println()
	}
	best := candidates[0]
	fmt.Printf("\npick: %v — worst-case %.0f MB/s, %.1fx below the uncached %.0f MB/s\n",
		best.cfg, best.worstMBps,
		model.UncachedBandwidthBytesPerSecond()/1e6/best.worstMBps,
		model.UncachedBandwidthBytesPerSecond()/1e6)
}
