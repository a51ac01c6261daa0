package exp

import (
	"context"
	"fmt"

	"texcache/internal/cache"
	"texcache/internal/perf"
	"texcache/internal/report"
	"texcache/internal/scenes"
	"texcache/internal/texture"
)

func init() {
	register(Experiment{
		ID: "table7.1",
		Title: "Memory bandwidth requirements (MB/s) at 50M textured " +
			"fragments/s, blocked+padded layout, 8x8-pixel tiled rasterization",
		Run: runTable71,
		Needs: func(cfg Config) []TraceKey {
			var keys []TraceKey
			for _, name := range cfg.sceneList(scenes.Names()...) {
				trav := DefaultTraversalFor(name)
				trav.TileW, trav.TileH = 8, 8
				for _, bw := range []int{4, 8} {
					keys = append(keys, TraceKey{Scene: name,
						Layout:    texture.LayoutSpec{Kind: texture.PaddedBlockedKind, BlockW: bw, PadBlocks: 4},
						Traversal: trav})
				}
			}
			return keys
		},
	})
	register(Experiment{
		ID:    "banks",
		Title: "Morton vs linear 4-bank interleaving (Section 7.1.2)",
		Run:   runBanks,
	})
}

// table71Col is one column of Table 7.1.
type table71Col struct {
	cacheSize int
	ways      int
	lineBytes int
	blockW    int
}

// table71Cols transcribes the table's nine columns: 4KB and 32KB 2-way
// and 128KB direct-mapped, each with 32B/4x4, 64B/4x4 and 128B/8x8
// line/block pairs.
func table71Cols() []table71Col {
	var cols []table71Col
	for _, sz := range []struct {
		size, ways int
	}{{4 << 10, 2}, {32 << 10, 2}, {128 << 10, 1}} {
		for _, lb := range []struct{ line, block int }{{32, 4}, {64, 4}, {128, 8}} {
			cols = append(cols, table71Col{sz.size, sz.ways, lb.line, lb.block})
		}
	}
	return cols
}

// runTable71 reproduces Table 7.1: memory bandwidth in MB/s (miss rate in
// parentheses) for each scene and cache configuration, using the padded
// blocked representation and 8x8-pixel tiled rasterization.
func runTable71(ctx context.Context, cfg Config, rep report.Reporter) error {
	model := perf.Default()
	cols := table71Cols()

	rcols := []report.Column{{Name: "scene", Head: "%-8s", Cell: "%-8s"}}
	for _, c := range cols {
		assoc := "2way"
		if c.ways == 1 {
			assoc = "DM"
		}
		rcols = append(rcols, report.Column{
			Name: fmt.Sprintf("%s/%s/%dB", cache.FormatSize(c.cacheSize), assoc, c.lineBytes),
			Head: "%16s", Cell: "%16s"})
	}
	rep.BeginTable("bandwidth", rcols)

	for _, name := range cfg.sceneList(scenes.Names()...) {
		trav := DefaultTraversalFor(name)
		trav.TileW, trav.TileH = 8, 8
		// One trace per block size; each trace replays its columns in a
		// single concurrent pass.
		rates := map[int][]float64{} // blockW -> per-column miss rate (nil entries elsewhere)
		for _, bw := range []int{4, 8} {
			spec := texture.LayoutSpec{Kind: texture.PaddedBlockedKind, BlockW: bw, PadBlocks: 4}
			tr, err := traceScene(ctx, cfg, name, spec, trav)
			if err != nil {
				return err
			}
			var cfgs []cache.Config
			for _, col := range cols {
				if col.blockW == bw {
					cfgs = append(cfgs, cache.Config{SizeBytes: col.cacheSize, LineBytes: col.lineBytes, Ways: col.ways})
				}
			}
			r, err := cache.MissRatesGroupedStream(ctx, tr, cfgs)
			if err != nil {
				return err
			}
			rates[bw] = r
		}
		next := map[int]int{}
		vals := []any{name}
		for _, col := range cols {
			mr := rates[col.blockW][next[col.blockW]]
			next[col.blockW]++
			bwMBps := model.BandwidthBytesPerSecond(mr, col.lineBytes) / 1e6
			vals = append(vals, fmt.Sprintf("%.0f (%.2f)", bwMBps, 100*mr))
		}
		rep.Row(vals...)
	}
	rep.Note("")
	rep.Note("uncached requirement: %.1f GB/s; paper's 32KB bandwidths span ~100-450 MB/s (3-15x reduction)",
		model.UncachedBandwidthBytesPerSecond()/1e9)
	return nil
}

// runBanks reproduces the Section 7.1.2 analysis: with texels morton-
// interleaved across four banks, every bilinear footprint reads in one
// cycle; linear interleaving conflicts on power-of-two strides.
func runBanks(ctx context.Context, cfg Config, rep report.Reporter) error {
	rep.BeginTable("banks", []report.Column{
		{Name: "scene", Head: "%-8s", Cell: "%-8s"},
		{Name: "morton cyc/quad", Head: " %16s", Cell: " %16.3f"},
		{Name: "linear cyc/quad", Head: " %16s", Cell: " %16.3f"},
		{Name: "speedup", Head: " %9s", Cell: " %8.2fx"},
	})
	for _, name := range cfg.sceneList(scenes.Names()...) {
		if err := ctx.Err(); err != nil {
			return err
		}
		s, err := buildScene(cfg, name)
		if err != nil {
			return err
		}
		a := newBankAnalyzer()
		if _, err := s.Render(scenes.RenderOptions{
			Layout:    texture.LayoutSpec{Kind: texture.NonBlockedKind},
			Traversal: s.DefaultTraversal(),
			OnAccess:  a.Record,
		}); err != nil {
			return err
		}
		rep.Row(name, a.CyclesPerQuadMorton(), a.CyclesPerQuadLinear(), a.Speedup())
	}
	rep.Note("")
	rep.Note("%s", "paper: morton order allows up to four texels per cycle conflict-free")
	return nil
}
