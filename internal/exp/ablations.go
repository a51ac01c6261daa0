package exp

import (
	"context"
	"fmt"

	"texcache/internal/cache"
	"texcache/internal/report"
	"texcache/internal/scenes"
)

// Cache-organization ablations beyond the paper's sweeps: replacement
// policy (the paper fixes LRU without comment) and sectored lines (the
// classic alternative when large lines are wanted cheaply).

func init() {
	register(Experiment{
		ID: "replacement",
		Title: "Replacement policy ablation: LRU vs FIFO vs random " +
			"(the paper assumes LRU)",
		Run: runReplacement,
		Needs: func(cfg Config) []TraceKey {
			var keys []TraceKey
			for _, name := range cfg.sceneList("goblet", "town") {
				keys = append(keys, TraceKey{Scene: name, Layout: blocked8(),
					Traversal: DefaultTraversalFor(name)})
			}
			return keys
		},
	})
	register(Experiment{
		ID: "sectored",
		Title: "Sectored (sub-block) lines vs full-line fills: miss rate " +
			"vs fill traffic",
		Run: runSectored,
		Needs: func(cfg Config) []TraceKey {
			var keys []TraceKey
			for _, name := range cfg.sceneList(scenes.Names()...) {
				keys = append(keys, TraceKey{Scene: name, Layout: blocked8(),
					Traversal: DefaultTraversalFor(name)})
			}
			return keys
		},
	})
}

// runReplacement sweeps cache size for the three policies at the paper's
// standard 2-way / 128B / blocked-8x8 point. Expected shape: LRU lowest,
// FIFO and random close behind — texture streams are so sequential that
// policy matters little, which is itself a finding.
func runReplacement(ctx context.Context, cfg Config, rep report.Reporter) error {
	policies := []cache.Replacement{cache.LRU, cache.FIFO, cache.Random}
	for _, name := range cfg.sceneList("goblet", "town") {
		tr, err := traceScene(ctx, cfg, name, blocked8(), DefaultTraversalFor(name))
		if err != nil {
			return err
		}
		rep.Note("--- %s, 2-way, 128B lines, blocked 8x8 ---", name)
		beginCurve(rep, "replacement-"+name, "policy")
		// One pass replays the whole (policy x size) grid concurrently.
		var cfgs []cache.Config
		for _, p := range policies {
			for _, size := range curveSizes() {
				cfgs = append(cfgs, cache.Config{SizeBytes: size, LineBytes: 128, Ways: 2, Policy: p})
			}
		}
		rates, err := cache.MissRatesGroupedStream(ctx, tr, cfgs)
		if err != nil {
			return err
		}
		per := len(curveSizes())
		for i, p := range policies {
			curveRow(rep, p.String(), rates[i*per:(i+1)*per])
		}
		rep.Note("")
	}
	rep.Note("%s", "LRU exploits the re-reference of filter footprints; the gap to FIFO and")
	rep.Note("%s", "random shows how much of the hit rate is recency rather than streaming")
	return nil
}

// runSectored compares a full-line cache against sectored variants with
// the same tags but smaller fetch granularity. Expected shape: sectors
// raise the miss (fetch) count — the texture stream profits from the
// full-line prefetch of neighboring texels — but each fetch moves fewer
// bytes, so the traffic comparison decides the design.
func runSectored(ctx context.Context, cfg Config, rep report.Reporter) error {
	const lineBytes = 128
	rep.BeginTable("sectored", []report.Column{
		{Name: "scene", Head: "%-8s", Cell: "%-8s"},
		{Name: "organization", Head: " %-18s", Cell: " %-18s"},
		{Name: "fetch rate", Head: " %12s", Cell: " %11.2f%%"},
		{Name: "tag misses", Head: " %12s", Cell: " %12d"},
		{Name: "MB moved", Head: " %12s", Cell: " %12.2f"},
	})
	for _, name := range cfg.sceneList(scenes.Names()...) {
		tr, err := traceScene(ctx, cfg, name, blocked8(), DefaultTraversalFor(name))
		if err != nil {
			return err
		}
		ccfg := cache.Config{SizeBytes: 32 << 10, LineBytes: lineBytes, Ways: 2}

		// The full-line cache and both sectored variants share one
		// concurrent pass over the trace.
		full := cache.New(ccfg)
		sectors := []int{64, 32}
		scs := make([]*cache.Sectored, len(sectors))
		sinks := []cache.Sink{full.Sink()}
		for i, sector := range sectors {
			sc, err := cache.NewSectored(ccfg, sector)
			if err != nil {
				return err
			}
			scs[i] = sc
			sinks = append(sinks, sc.Sink())
		}
		if err := cache.ReplayStreamConcurrent(ctx, tr, sinks...); err != nil {
			return err
		}

		fs := full.Stats()
		rep.Row(name, "full 128B fills", 100*fs.MissRate(), fs.Misses,
			float64(fs.BytesFetched(lineBytes))/(1<<20))
		for i, sector := range sectors {
			ss := scs[i].Stats()
			rep.Row(name, fmt.Sprintf("%dB sectors", sector), 100*ss.MissRate(),
				scs[i].TagMisses(), float64(scs[i].TrafficBytes())/(1<<20))
		}
	}
	rep.Note("")
	rep.Note("%s", "full-line fills act as spatial prefetch for blocked textures; sectors")
	rep.Note("%s", "trade extra fetches for less traffic per fetch")
	return nil
}
