package exp

import (
	"context"
	"fmt"
	"sync"

	"texcache/internal/arch"
	"texcache/internal/cache"
	"texcache/internal/cas"
	"texcache/internal/obs"
	"texcache/internal/raster"
	"texcache/internal/report"
	"texcache/internal/scenes"
	"texcache/internal/texture"
)

// The Igehy et al. 1998 miss-latency-tolerance experiment: sweep the
// memory latency against the cycle-level pipelines and watch the
// blocking baseline degrade linearly while the prefetching machine,
// given enough fragment-FIFO depth, stays at its zero-latency bound.

func init() {
	register(Experiment{
		ID: "igehy",
		Title: "Miss-latency tolerance of the prefetching texture cache " +
			"vs the blocking baseline (Igehy et al. 1998)",
		Run:   runIgehy,
		Needs: archNeeds,
	})
}

// archLayout and archTraversal are the rendering keys of the
// architecture experiments, shared with the prefetch and latency
// experiments so one engine prewarm serves all three.
func archLayout() texture.LayoutSpec {
	return texture.LayoutSpec{Kind: texture.PaddedBlockedKind, BlockW: 8, PadBlocks: 4}
}

func archTraversal() raster.Traversal {
	return raster.Traversal{TileW: 8, TileH: 8}
}

// archNeeds declares the one archLayout/archTraversal trace per scene
// that igehy, latency and prefetch read.
func archNeeds(cfg Config) []TraceKey {
	var keys []TraceKey
	for _, name := range cfg.sceneList(scenes.Names()...) {
		keys = append(keys, TraceKey{Scene: name, Layout: archLayout(), Traversal: archTraversal()})
	}
	return keys
}

// Budgets for the timeline memo. A timeline holds one uint64 per miss,
// a few MB for a scene at scale 1, so a process keeps every scene at
// several scales. Eviction is never a correctness event: the next call
// replays the trace again, identically.
const (
	timelineMaxEntries = 16
	timelineMaxBytes   = 64 << 20
)

// timelineKey is an architecture timeline's identity: the trace's
// layout, traversal and cache are fixed, so the scene and the scale
// name it.
type timelineKey struct {
	scene string
	scale int
}

// The memo behind archTimeline is created on first use, so that nothing
// runs at package init.
var (
	timelineOnce sync.Once
	timelineMemo *cas.Memo[timelineKey, *arch.Timeline]
)

// archTimeline records where the scene's architecture trace misses in
// the paper's 32KB 2-way cache with 128-byte lines: the one cache replay
// each architecture experiment reruns its timing models over. Timelines
// are memoized per (scene, scale) in a bounded single-flight memo, so
// igehy, latency and prefetch share one replay; a failed build is not
// kept. Timelines are read-only once built.
func archTimeline(ctx context.Context, cfg Config, name string) (*arch.Timeline, error) {
	timelineOnce.Do(func() {
		timelineMemo = cas.NewMemo[timelineKey, *arch.Timeline](timelineMaxEntries, timelineMaxBytes, func() {
			obs.Default().Sub("arch").Sub("timeline_memo").Counter("evictions").Inc()
		})
	})
	tl, _, err := timelineMemo.Do(ctx, timelineKey{scene: name, scale: cfg.scale()},
		func() (*arch.Timeline, int64, error) {
			tr, err := traceScene(ctx, cfg, name, archLayout(), archTraversal())
			if err != nil {
				return nil, 0, err
			}
			tl, err := arch.NewTimeline(cache.Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2}, tr)
			if err != nil {
				return nil, 0, err
			}
			return tl, 8 * int64(tl.MissCount()), nil
		})
	return tl, err
}

// igehyLatencies is the swept fill latency in cycles; 0 is the ideal
// memory bound each row normalizes against.
var igehyLatencies = []int{0, 25, 50, 100, 200, 400}

// igehyDepths is the swept fragment-FIFO depth in fragments.
var igehyDepths = []int{4, 16, 64}

// runIgehy builds one miss timeline per scene (the cache replay) and
// reruns only the cycle recurrence across pipelines, FIFO depths and
// latencies. Each cell is execution time normalized to that machine's
// own zero-latency run. Expected shape: blocking grows linearly with
// latency; prefetch flattens as the FIFO deepens, and at depth 64 the
// 100-cycle column stays within 10% of the zero-latency bound.
func runIgehy(ctx context.Context, cfg Config, rep report.Reporter) error {
	cols := []report.Column{
		{Name: "scene", Head: "%-8s", Cell: "%-8s"},
		{Name: "machine", Head: " %-10s", Cell: " %-10s"},
	}
	for _, lat := range igehyLatencies {
		cols = append(cols, report.Column{Name: fmt.Sprintf("lat=%d", lat), Head: "%9s", Cell: "%9.3f"})
	}
	// Header-only annotation column: rows supply no value for it.
	cols = append(cols, report.Column{Name: "    (time / zero-latency bound)", Head: "%s"})
	rep.BeginTable("igehy", cols)

	for _, name := range cfg.sceneList(scenes.Names()...) {
		tl, err := archTimeline(ctx, cfg, name)
		if err != nil {
			return err
		}
		ccfg := tl.CacheConfig()
		machines := []struct {
			label string
			cfg   arch.Config
		}{{"blocking", arch.Default(ccfg, arch.Blocking)}}
		for _, d := range igehyDepths {
			m := arch.Default(ccfg, arch.Prefetch)
			m.FragmentFIFO = d
			machines = append(machines, struct {
				label string
				cfg   arch.Config
			}{fmt.Sprintf("fifo=%d", d), m})
		}
		for _, m := range machines {
			vals := []any{name, m.label}
			var bound uint64
			for _, lat := range igehyLatencies {
				mc := m.cfg
				mc.FillLatency = lat
				res, err := tl.Simulate(mc)
				if err != nil {
					return err
				}
				if lat == 0 {
					bound = res.TotalCyc
				}
				vals = append(vals, float64(res.TotalCyc)/float64(bound))
			}
			rep.Row(vals...)
		}
	}
	rep.Note("")
	rep.Note("%s", "Igehy et al. 1998: the fragment FIFO buys the memory system lead time,")
	rep.Note("%s", "so a deep enough FIFO holds the prefetching pipeline at its zero-latency")
	rep.Note("%s", "bound while the blocking cache pays every miss in full")
	return nil
}
