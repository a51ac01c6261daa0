package exp

import (
	"context"

	"texcache/internal/arch"
	"texcache/internal/cache"
	"texcache/internal/parallel"
	"texcache/internal/perf"
	"texcache/internal/prefetch"
	"texcache/internal/raster"
	"texcache/internal/report"
	"texcache/internal/scenes"
	"texcache/internal/texture"
)

// Extension experiments: the directions the paper proposes but does not
// evaluate — the Peano-Hilbert rasterization path of footnote 1,
// rendering from compressed textures (Section 8 / Beers et al.), the
// parallel fragment-generator question from the conclusion, and the
// latency-hiding sensitivity of Section 7.1.1.

func init() {
	register(Experiment{
		ID: "hilbert",
		Title: "Peano-Hilbert rasterization path vs scanline and tiled " +
			"orders (footnote 1 ablation)",
		Run: runHilbert,
		Needs: func(cfg Config) []TraceKey {
			name := "guitar"
			if len(cfg.Scenes) > 0 {
				name = cfg.Scenes[0]
			}
			base := scenes.DefaultTraversal(name)
			tiled := base
			tiled.TileW, tiled.TileH = 8, 8
			return []TraceKey{
				{Scene: name, Layout: blocked8(), Traversal: base},
				{Scene: name, Layout: blocked8(), Traversal: tiled},
				{Scene: name, Layout: blocked8(), Traversal: raster.Traversal{Order: raster.HilbertOrder}},
			}
		},
	})
	register(Experiment{
		ID: "compress",
		Title: "Rendering from 4:1 compressed textures vs uncompressed " +
			"(Section 8 future work)",
		Run: runCompress,
	})
	register(Experiment{
		ID: "parallel",
		Title: "Parallel fragment generators sharing texture memory: " +
			"balance vs locality (Section 8 future work)",
		Run: runParallel,
	})
	register(Experiment{
		ID: "latency",
		Title: "Rendering performance with and without latency hiding " +
			"(Section 7.1.1)",
		Run:   runLatency,
		Needs: archNeeds,
	})
}

// runHilbert compares the working-set curves of scanline, tiled and
// Hilbert traversals. Expected: Hilbert matches or beats tiled at small
// caches — it is the limit case of recursive tiling.
func runHilbert(ctx context.Context, cfg Config, rep report.Reporter) error {
	name := "guitar"
	if len(cfg.Scenes) > 0 {
		name = cfg.Scenes[0]
	}
	order := scenes.DefaultTraversal(name).Order
	rep.Note("--- %s, blocked 8x8, 128B lines, fully associative ---", name)
	beginCurve(rep, "traversals", "traversal")
	for _, tc := range []struct {
		label string
		trav  raster.Traversal
	}{
		{"scanline", raster.Traversal{Order: order}},
		{"tiled 8x8", raster.Traversal{Order: order, TileW: 8, TileH: 8}},
		{"hilbert", raster.Traversal{Order: raster.HilbertOrder}},
	} {
		tr, err := traceScene(ctx, cfg, name, blocked8(), tc.trav)
		if err != nil {
			return err
		}
		sd := cache.NewStackDist(128)
		cache.ReplayStream(tr, sd)
		curveRow(rep, tc.label, sd.Curve(curveSizes()))
	}
	rep.Note("")
	rep.Note("%s", "footnote 1: the Peano-Hilbert path minimizes the working set by")
	rep.Note("%s", "traversing texture regions in a spatially contiguous manner")
	return nil
}

// runCompress compares blocked uncompressed against 4:1 compressed
// texture memory: the compressed line covers four times the texels, so
// both the miss rate and the bytes per miss drop.
func runCompress(ctx context.Context, cfg Config, rep report.Reporter) error {
	model := perf.Default()
	rep.BeginTable("compress", []report.Column{
		{Name: "scene", Head: "%-8s", Cell: "%-8s"},
		{Name: "layout", Head: " %-12s", Cell: " %-12s"},
		{Name: "miss rate", Head: " %12s", Cell: " %11.2f%%"},
		{Name: "MB/frame", Head: " %12s", Cell: " %12.2f"},
		{Name: "MB/s @50Mf/s", Head: " %14s", Cell: " %14.0f"},
	})
	for _, name := range cfg.sceneList(scenes.Names()...) {
		for _, spec := range []texture.LayoutSpec{
			{Kind: texture.BlockedKind, BlockW: 8},
			{Kind: texture.CompressedKind, BlockW: 8, Ratio: 4},
		} {
			tr, err := traceScene(ctx, cfg, name, spec, scenes.DefaultTraversal(name))
			if err != nil {
				return err
			}
			c := cache.New(cache.Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2})
			cache.ReplayStream(tr, c.Sink())
			st := c.Stats()
			rep.Row(name, spec.Kind, 100*st.MissRate(),
				float64(st.BytesFetched(128))/(1<<20),
				model.BandwidthBytesPerSecond(st.MissRate(), 128)/1e6)
		}
	}
	rep.Note("")
	rep.Note("%s", "expected: ~4x traffic reduction — fewer misses (denser lines) at the")
	rep.Note("%s", "same line size, with decompression moved into the fill path")
	return nil
}

// runParallel evaluates image-space work partitions for 1-8 fragment
// generators, each with a private 32KB 2-way cache over a shared texture
// memory: load imbalance vs aggregate miss traffic.
func runParallel(ctx context.Context, cfg Config, rep report.Reporter) error {
	name := "town"
	if len(cfg.Scenes) > 0 {
		name = cfg.Scenes[0]
	}
	s, err := buildScene(ctx, cfg, name)
	if err != nil {
		return err
	}
	layout := texture.LayoutSpec{Kind: texture.PaddedBlockedKind, BlockW: 8, PadBlocks: 4}
	cc := cache.Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2}
	rep.Note("--- %s, per-FG 32KB 2-way 128B lines ---", name)
	rep.BeginTable("partitions", []report.Column{
		{Name: "partition", Head: "%-22s", Cell: "%-22s"},
		{Name: "FGs", Head: " %4s", Cell: " %4d"},
		{Name: "imbalance", Head: " %12s", Cell: " %12.3f"},
		{Name: "agg miss%", Head: " %12s", Cell: " %11.2f%%"},
		{Name: "misses/frame", Head: " %14s", Cell: " %14d"},
	})
	for _, n := range []int{1, 2, 4, 8} {
		for _, p := range []parallel.Partition{
			parallel.ScanlineInterleave, parallel.StripPartition, parallel.TileInterleave,
		} {
			if n == 1 && p != parallel.StripPartition {
				continue // all partitions are identical with one FG
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			res, err := parallel.Run(s, p, n, 8, layout, cc)
			if err != nil {
				return err
			}
			rep.Row(p, n, res.LoadImbalance(), 100*res.AggregateMissRate(), res.TotalMisses())
		}
	}
	rep.Note("")
	rep.Note("%s", "the conclusion's open question: interleaved scanlines balance load but")
	rep.Note("%s", "shred per-stream locality; strips keep locality but unbalance; tiles trade")
	return nil
}

// runLatency quantifies Section 7.1.1: how far below the 50M fragments/s
// peak an un-hidden ~50-cycle miss latency drags each scene, versus the
// prefetching dual-rasterizer design that hides it. The stalled rate is
// the blocking pipeline over the scene's miss timeline, which pays the
// full 18+32-cycle fill on every miss.
func runLatency(ctx context.Context, cfg Config, rep report.Reporter) error {
	model := perf.Default()
	rep.BeginTable("latency", []report.Column{
		{Name: "scene", Head: "%-8s", Cell: "%-8s"},
		{Name: "miss rate", Head: " %10s", Cell: " %9.2f%%"},
		{Name: "stalled Mfrag/s", Head: " %16s", Cell: " %16.1f"},
		{Name: "hidden Mfrag/s", Head: " %16s", Cell: " %16.1f"},
		{Name: "slowdown", Head: " %8s", Cell: " %7.1fx"},
	})
	for _, name := range cfg.sceneList(scenes.Names()...) {
		tl, err := archTimeline(ctx, cfg, name)
		if err != nil {
			return err
		}
		m := arch.Default(tl.CacheConfig(), arch.Blocking)
		m.FillLatency, m.FillOccupancy = prefetch.FillLatency, prefetch.FillOccupancy
		res, err := tl.Simulate(m)
		if err != nil {
			return err
		}
		mr := cache.Stats{Accesses: tl.Accesses(), Misses: tl.MissCount()}.MissRate()
		stalled := res.FragmentsPerSecond(model.ClockHz)
		hidden := model.PeakFragmentsPerSecond()
		rep.Row(name, 100*mr, stalled/1e6, hidden/1e6, hidden/stalled)
	}
	rep.Note("")
	rep.Note("%s", "Section 7.1.1: the memory latency 'must be completely hidden to achieve")
	rep.Note("%s", "the maximum rate of fragments textured per second'")
	return nil
}
