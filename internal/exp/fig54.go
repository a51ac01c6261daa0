package exp

import (
	"context"
	"fmt"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/report"
	"texcache/internal/scenes"
	"texcache/internal/texture"
)

func init() {
	register(Experiment{
		ID: "fig5.4",
		Title: "Interaction between block size and cache line size " +
			"(32KB fully associative; Town-vertical, Guitar-horizontal)",
		Run: runFig54,
	})
	register(Experiment{
		ID: "fig5.5",
		Title: "Effect of matched line/block size on miss rate, all scenes " +
			"(32KB fully associative)",
		Run: runFig55,
	})
	register(Experiment{
		ID: "fig5.6",
		Title: "Blocked representation across cache sizes (Guitar, fully " +
			"associative, line = block)",
		Run: runFig56,
	})
}

// fig54Lines is the line-size sweep of Figure 5.4 in bytes.
var fig54Lines = []int{16, 32, 64, 128, 256}

// fig54Blocks are the block dimensions swept (1x1 = nonblocked ordering).
var fig54Blocks = []int{1, 2, 4, 8, 16}

// runFig54 reproduces Figure 5.4: for a 32KB fully-associative cache,
// miss rate versus line size for a range of block sizes. The paper's
// conclusion: the best block size matches the cache line size
// (a 4x4x4B = 64B block for a 64B line, 8x8 for 128B), and growing the
// line without blocking makes things worse.
func runFig54(ctx context.Context, cfg Config, rep report.Reporter) error {
	const cacheSize = 32 << 10
	for _, sc := range []struct {
		name string
		dir  raster.Order
	}{{"town", raster.ColumnMajor}, {"guitar", raster.RowMajor}} {
		if !containsScene(cfg, sc.name) {
			continue
		}
		rep.Note("--- %s (%s rasterization), 32KB fully associative ---", sc.name, sc.dir)
		cols := []report.Column{{Name: "block \\ line", Head: "%-18s", Cell: "%-18s"}}
		for _, l := range fig54Lines {
			cols = append(cols, report.Column{Name: cache.FormatSize(l), Head: "%9s", Cell: "%8.2f%%"})
		}
		rep.BeginTable("line-sweep-"+sc.name, cols)
		for _, bw := range fig54Blocks {
			spec := texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: bw}
			if bw == 1 {
				spec = texture.LayoutSpec{Kind: texture.NonBlockedKind}
			}
			tr, err := traceScene(ctx, cfg, sc.name, spec, raster.Traversal{Order: sc.dir})
			if err != nil {
				return err
			}
			// One pass feeds all five line sizes, each a fully-associative
			// LRU cache answering the one 32KB point the figure reads.
			caches := make([]*cache.Cache, len(fig54Lines))
			sinks := make([]cache.Sink, len(fig54Lines))
			for i, line := range fig54Lines {
				caches[i] = cache.New(cache.Config{SizeBytes: cacheSize, LineBytes: line, Ways: 0})
				sinks[i] = caches[i].Sink()
			}
			if err := cache.ReplayStreamConcurrent(ctx, tr, sinks...); err != nil {
				return err
			}
			vals := []any{fmt.Sprintf("%dx%d (%s)", bw, bw, cache.FormatSize(lineForBlock(bw)))}
			for _, c := range caches {
				vals = append(vals, 100*c.Stats().MissRate())
			}
			rep.Row(vals...)
		}
		rep.Note("")
	}
	rep.Note("%s", "paper: lowest miss rate on each line-size column occurs where block bytes = line bytes")
	return nil
}

// runFig55 reproduces Figure 5.5: miss rate for all four scenes with the
// block size matched to the line size, on a 32KB fully-associative cache.
// Expected shape: miss rates fall substantially from 32B to 128B lines
// (flight 2.8%->0.87%, goblet 1.5%->0.41%, guitar 1.2%->0.36%,
// town 0.8%->0.21%).
func runFig55(ctx context.Context, cfg Config, rep report.Reporter) error {
	const cacheSize = 32 << 10
	blocks := []int{2, 4, 8, 16} // 16B..1KB lines
	cols := []report.Column{{Name: "scene", Head: "%-10s", Cell: "%-10s"}}
	for _, bw := range blocks {
		cols = append(cols, report.Column{
			Name: fmt.Sprintf("%dx%d/%s", bw, bw, cache.FormatSize(lineForBlock(bw))),
			Head: "%12s", Cell: "%11.2f%%"})
	}
	rep.BeginTable("matched-line-block", cols)
	for _, name := range cfg.sceneList(scenes.Names()...) {
		vals := []any{name}
		for _, bw := range blocks {
			tr, err := traceScene(ctx, cfg, name,
				texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: bw}, scenes.DefaultTraversal(name))
			if err != nil {
				return err
			}
			c := cache.New(cache.Config{SizeBytes: cacheSize, LineBytes: lineForBlock(bw), Ways: 0})
			cache.ReplayStream(tr, c.Sink())
			vals = append(vals, 100*c.Stats().MissRate())
		}
		rep.Row(vals...)
	}
	rep.Note("")
	rep.Note("%s", "paper at 32B: flight=2.8 goblet=1.5 guitar=1.2 town=0.8 (%);")
	rep.Note("%s", "at 128B: flight=0.87 goblet=0.41 guitar=0.36 town=0.21 (%)")
	return nil
}

// runFig56 reproduces Figure 5.6: the blocked representation with larger
// matched line/block sizes reduces capacity misses even for caches
// smaller than the working set (Guitar scene).
func runFig56(ctx context.Context, cfg Config, rep report.Reporter) error {
	name := "guitar"
	if len(cfg.Scenes) > 0 {
		name = cfg.Scenes[0]
	}
	beginCurve(rep, "blocked-sizes", name+" line/block")
	for _, bw := range []int{2, 4, 8, 16} {
		tr, err := traceScene(ctx, cfg, name,
			texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: bw}, scenes.DefaultTraversal(name))
		if err != nil {
			return err
		}
		sd := cache.NewStackDist(lineForBlock(bw))
		cache.ReplayStream(tr, sd)
		curveRow(rep, fmt.Sprintf("%s/%dx%d", cache.FormatSize(lineForBlock(bw)), bw, bw),
			sd.Curve(curveSizes()))
	}
	rep.Note("")
	rep.Note("%s", "paper: larger matched line/block pairs lower the whole curve, including")
	rep.Note("%s", "cache sizes below the working set (fewer capacity misses)")
	return nil
}

func containsScene(cfg Config, name string) bool {
	if len(cfg.Scenes) == 0 {
		return true
	}
	for _, s := range cfg.Scenes {
		if s == name {
			return true
		}
	}
	return false
}
