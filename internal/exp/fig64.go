package exp

import (
	"context"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/report"
	"texcache/internal/texture"
)

func init() {
	register(Experiment{
		ID: "fig6.4",
		Title: "Effect of tiled rasterization plus padding/6D blocking on " +
			"conflict misses (Town-vertical, Flight; 8x8 blocks, 128B lines, 8x8 tiles)",
		Run: runFig64,
	})
}

// runFig64 reproduces Figure 6.4: direct-mapped and 2-way miss rates
// with untiled versus tiled rasterization, and with plain, padded and 6D
// blocked representations. Expected shapes: tiling alone sharply cuts
// block conflicts for Town; Flight's large terrain textures also need
// padding or 6D blocking before the conflicts subside.
func runFig64(ctx context.Context, cfg Config, rep report.Reporter) error {
	const lineBytes = 128
	var twoWay []cache.Config
	for _, size := range curveSizes() {
		twoWay = append(twoWay, cache.Config{SizeBytes: size, LineBytes: lineBytes, Ways: 2})
	}
	for _, sc := range []struct {
		name string
		dir  raster.Order
	}{{"town", raster.ColumnMajor}, {"flight", raster.RowMajor}} {
		if !containsScene(cfg, sc.name) {
			continue
		}
		rep.Note("--- %s (%s within and between tiles) ---", sc.name, sc.dir)
		cols := []report.Column{{Name: "config", Head: "%-34s", Cell: "%-34s"}}
		for _, s := range curveSizes() {
			cols = append(cols, report.Column{Name: cache.FormatSize(s), Head: "%9s", Cell: "%8.2f%%"})
		}
		rep.BeginTable("conflicts-"+sc.name, cols)

		// The untiled, blocked and padded variants each share one trace
		// across the sweep, so one grouped walk answers all nine sizes.
		for _, v := range []struct {
			label string
			tiled bool
			spec  texture.LayoutSpec
		}{
			{"untiled blocked", false, texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}},
			{"tiled 8x8 blocked", true, texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}},
			{"tiled 8x8 padded(4)", true, texture.LayoutSpec{Kind: texture.PaddedBlockedKind, BlockW: 8, PadBlocks: 4}},
		} {
			trav := raster.Traversal{Order: sc.dir}
			if v.tiled {
				trav.TileW, trav.TileH = 8, 8
			}
			tr, err := traceScene(ctx, cfg, sc.name, v.spec, trav)
			if err != nil {
				return err
			}
			rates, err := cache.MissRatesGroupedStream(ctx, tr, twoWay)
			if err != nil {
				return err
			}
			curveRow(rep, v.label+" 2-way", rates)
		}

		// The 6D super-block tracks the cache size, so its address stream
		// changes per point.
		trav := raster.Traversal{Order: sc.dir, TileW: 8, TileH: 8}
		vals := []any{"tiled 8x8 6D 2-way"}
		for _, c := range twoWay {
			spec := texture.LayoutSpec{Kind: texture.SixDBlockedKind, BlockW: 8, SuperBytes: c.SizeBytes}
			tr, err := traceScene(ctx, cfg, sc.name, spec, trav)
			if err != nil {
				return err
			}
			sim := cache.New(c)
			cache.ReplayStream(tr, sim.Sink())
			vals = append(vals, 100*sim.Stats().MissRate())
		}
		rep.Row(vals...)

		// Fully-associative floor for reference (conflict-free).
		tr, err := traceScene(ctx, cfg, sc.name, texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}, trav)
		if err != nil {
			return err
		}
		sd := cache.NewStackDist(lineBytes)
		cache.ReplayStream(tr, sd)
		curveRow(rep, "tiled 8x8 blocked FA floor", sd.Curve(curveSizes()))
		rep.Note("")
	}
	rep.Note("%s", "paper: tiling cuts town's block conflicts by itself; flight's 1024x1024")
	rep.Note("%s", "textures also need padding or 6D blocking before conflicts subside")
	return nil
}
