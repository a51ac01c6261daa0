package exp

import (
	"context"
	"fmt"

	"texcache/internal/cache"
	"texcache/internal/dram"
	"texcache/internal/prefetch"
	"texcache/internal/raster"
	"texcache/internal/report"
	"texcache/internal/scenes"
	"texcache/internal/texture"
)

// Memory-system experiments: the DRAM burst-efficiency claims of
// Section 3.2, the prefetch FIFO of Section 7.1.1, and the inter-frame
// temporal locality Section 3.1.2 discusses but does not measure.

func init() {
	register(Experiment{
		ID: "dram",
		Title: "DRAM page behavior and bus utilization of the fill stream " +
			"vs line size (Section 3.2)",
		Run: runDRAM,
	})
	register(Experiment{
		ID: "prefetch",
		Title: "Sustained fragment rate vs prefetch FIFO depth " +
			"(Section 7.1.1 dual-rasterizer design)",
		Run: runPrefetch,
	})
	register(Experiment{
		ID: "interframe",
		Title: "Temporal locality between consecutive frames vs cache size " +
			"(Section 3.1.2)",
		Run: runInterframe,
	})
}

// runDRAM replays each scene's 32KB-cache fill stream through the SDRAM
// model for several line sizes. Expected shape: larger lines raise both
// the page-hit rate (denser fills) and the bus utilization (longer
// bursts amortize the activate/precharge setup) — the Section 3.2
// argument for cache-line block transfers.
func runDRAM(ctx context.Context, cfg Config, rep report.Reporter) error {
	rep.BeginTable("dram", []report.Column{
		{Name: "scene", Head: "%-8s", Cell: "%-8s"},
		{Name: "line", Head: " %6s", Cell: " %5dB"},
		{Name: "fills", Head: " %10s", Cell: " %10d"},
		{Name: "page-hit", Head: " %10s", Cell: " %9.1f%%"},
		{Name: "bus-util", Head: " %10s", Cell: " %9.1f%%"},
		{Name: "eff MB/s", Head: " %12s", Cell: " %12.0f"},
	})
	for _, name := range cfg.sceneList(scenes.Names()...) {
		s, err := buildScene(cfg, name)
		if err != nil {
			return err
		}
		for _, line := range []int{32, 64, 128, 256} {
			if err := ctx.Err(); err != nil {
				return err
			}
			bw := 8
			if line < 256 {
				bw = line / (4 * texture.TexelBytes) // block matched to line
				if bw < 1 {
					bw = 1
				}
			}
			spec := texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: maxInt(2, bw)}
			c := cache.New(cache.Config{SizeBytes: 32 << 10, LineBytes: line, Ways: 2})
			d, err := dram.NewSim(dram.Default(), line)
			if err != nil {
				return err
			}
			c.SetMissObserver(func(a uint64) { d.Fill(a) })
			if _, err := s.Render(scenes.RenderOptions{
				Layout:    spec,
				Traversal: s.DefaultTraversal(),
				Sink:      c.Sink(),
			}); err != nil {
				return err
			}
			st := d.Stats()
			rep.Row(name, line, st.Fills, 100*st.PageHitRate(), 100*st.BusUtilization(),
				d.EffectiveBandwidth()/1e6)
		}
	}
	rep.Note("")
	rep.Note("%s", "Section 3.2: block transfers amortize DRAM setup over many bytes,")
	rep.Note("%s", "so longer lines extract a larger fraction of the raw 800 MB/s bus")
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// runPrefetch sweeps the FIFO depth of the dual-rasterizer prefetch for
// each scene, reporting the sustained fragment rate. Expected shape:
// rate climbs with depth until either the 50M/s compute peak or the
// memory bandwidth bound is reached.
func runPrefetch(ctx context.Context, cfg Config, rep report.Reporter) error {
	depths := []int{0, 2, 8, 32, 128, 512}
	cols := []report.Column{{Name: "scene", Head: "%-8s", Cell: "%-8s"}}
	for _, d := range depths {
		cols = append(cols, report.Column{Name: fmt.Sprintf("fifo=%d", d), Head: "%12s", Cell: "%12.1f"})
	}
	// Header-only annotation column: rows supply no value for it.
	cols = append(cols, report.Column{Name: "    (Mfragments/s at 100MHz)", Head: "%s"})
	rep.BeginTable("prefetch", cols)
	for _, name := range cfg.sceneList(scenes.Names()...) {
		tr, err := traceScene(ctx, cfg, name,
			texture.LayoutSpec{Kind: texture.PaddedBlockedKind, BlockW: 8, PadBlocks: 4},
			raster.Traversal{TileW: 8, TileH: 8})
		if err != nil {
			return err
		}
		vals := []any{name}
		for _, d := range depths {
			pcfg := prefetch.Default(cache.Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2}, d)
			res, err := prefetch.Simulate(pcfg, tr)
			if err != nil {
				return err
			}
			vals = append(vals, res.FragmentsPerSecond(100e6, 8)/1e6)
		}
		rep.Row(vals...)
	}
	rep.Note("")
	rep.Note("%s", "Section 7.1.1: computing texel addresses 'far in advance of the cache")
	rep.Note("%s", "accesses' hides the ~50-cycle fill latency behind the FIFO")
	return nil
}

// runInterframe renders two consecutive frames of each scene's camera
// motion into one cache and compares the second frame's miss rate with
// the first. Expected shape: at cache sizes far below the per-frame
// texture footprint the second frame gains nothing (the paper's stated
// reason for studying single frames); once the cache approaches the
// footprint, frame two becomes nearly free.
func runInterframe(ctx context.Context, cfg Config, rep report.Reporter) error {
	const dt = 1.0 / 30 // one frame of 30Hz motion
	sizes := []int{32 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
	cols := []report.Column{
		{Name: "scene", Head: "%-8s", Cell: "%-8s"},
		{Name: "footprint", Head: " %10s", Cell: " %10s"},
	}
	for _, sz := range sizes {
		cols = append(cols, report.Column{Name: cache.FormatSize(sz), Head: "%16s", Cell: "%16s"})
	}
	// Header-only annotation column: rows supply no value for it.
	cols = append(cols, report.Column{Name: "    (frame1% -> frame2%)", Head: "%s"})
	rep.BeginTable("interframe", cols)
	for _, name := range cfg.sceneList(scenes.Names()...) {
		s, err := buildScene(cfg, name)
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		spec := texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}
		// Record both frames' traces once. Frame zero routes through the
		// shared provider; the t=dt frame is keyed by time, so it renders
		// privately.
		tr0, err := traceScene(ctx, cfg, name, spec, s.DefaultTraversal())
		if err != nil {
			return err
		}
		tr1 := cache.NewTrace(tr0.Len())
		if _, err := s.Render(scenes.RenderOptions{
			Layout: spec, Traversal: s.DefaultTraversal(), Sink: tr1, Time: dt,
		}); err != nil {
			return err
		}
		sd := cache.NewStackDist(128)
		cache.ReplayStream(tr0, sd)
		footprint := sd.DistinctLines() * 128
		vals := []any{name, cache.FormatSize(footprint)}
		for _, sz := range sizes {
			c := cache.New(cache.Config{SizeBytes: sz, LineBytes: 128, Ways: 2})
			cache.ReplayStream(tr0, c.Sink())
			f1 := c.Stats()
			cache.ReplayStream(tr1, c.Sink())
			f2 := cache.Stats{
				Accesses: c.Stats().Accesses - f1.Accesses,
				Misses:   c.Stats().Misses - f1.Misses,
			}
			vals = append(vals, fmt.Sprintf("%.2f->%.2f", 100*f1.MissRate(), 100*f2.MissRate()))
		}
		rep.Row(vals...)
	}
	rep.Note("")
	rep.Note("%s", "Section 3.1.2: 'we generally do not expect our caches to exploit temporal")
	rep.Note("%s", "locality between consecutive frames because the cache sizes ... are much")
	rep.Note("%s", "smaller than the amount of texture data used by a single frame'")
	return nil
}
