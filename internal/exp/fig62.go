package exp

import (
	"context"
	"fmt"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/report"
	"texcache/internal/scenes"
)

func init() {
	register(Experiment{
		ID: "fig6.2",
		Title: "Effect of tiled rasterization on working set size (Guitar, " +
			"fully associative, 8x8 blocks, 128B lines)",
		Run: runFig62,
	})
}

// fig62Tiles is the tile-dimension sweep in pixels (0 = untiled).
var fig62Tiles = []int{0, 2, 4, 8, 16, 32, 64, 128, 256}

// runFig62 reproduces Figure 6.2: miss rate vs cache size for screen tile
// sizes from tiny to huge. Expected shape: medium tiles cut capacity
// misses for caches that previously couldn't hold the working set; tiny
// tiles converge to the untiled pattern; huge tiles overflow the cache
// again.
func runFig62(ctx context.Context, cfg Config, rep report.Reporter) error {
	name := "guitar"
	if len(cfg.Scenes) > 0 {
		name = cfg.Scenes[0]
	}
	order := scenes.DefaultTraversal(name).Order
	rep.Note("--- %s, blocked 8x8, 128B lines, fully associative ---", name)
	beginCurve(rep, "tile-sweep", "tile")
	for _, tile := range fig62Tiles {
		trav := raster.Traversal{Order: order, TileW: tile, TileH: tile}
		tr, err := traceScene(ctx, cfg, name, blocked8(), trav)
		if err != nil {
			return err
		}
		sd := cache.NewStackDist(128)
		cache.ReplayStream(tr, sd)
		label := "untiled"
		if tile > 0 {
			label = fmt.Sprintf("%dx%d px", tile, tile)
		}
		curveRow(rep, label, sd.Curve(curveSizes()))
	}
	rep.Note("")
	rep.Note("%s", "paper: small->medium tiles cut misses at cache sizes below the untiled")
	rep.Note("%s", "working set; medium->huge tiles bring capacity misses back")
	return nil
}
