package texcache_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper, regenerating the artifact from a fresh simulation, plus
// micro-benchmarks of the simulator's hot paths. Benchmarks run the
// scenes at scale 8 by default so `go test -bench=.` completes quickly;
// set TEXCACHE_BENCH_SCALE=1 for the paper's full-resolution runs.

import (
	"context"
	"io"
	"math"
	"os"
	"strconv"
	"testing"

	"texcache"
)

func benchScale() int {
	if v, err := strconv.Atoi(os.Getenv("TEXCACHE_BENCH_SCALE")); err == nil && v >= 1 {
		return v
	}
	return 8
}

// benchExperiment regenerates one paper artifact per iteration.
func benchExperiment(b *testing.B, id string) {
	req := texcache.ExperimentRequest{Experiments: []string{id}, Scale: benchScale()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results, err := texcache.Run(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		for r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

func BenchmarkTable2_1(b *testing.B)  { benchExperiment(b, "table2.1") }
func BenchmarkTable4_1(b *testing.B)  { benchExperiment(b, "table4.1") }
func BenchmarkLocality(b *testing.B)  { benchExperiment(b, "locality") }
func BenchmarkRunlength(b *testing.B) { benchExperiment(b, "runlength") }
func BenchmarkFig5_2(b *testing.B)    { benchExperiment(b, "fig5.2") }
func BenchmarkFig5_4(b *testing.B)    { benchExperiment(b, "fig5.4") }
func BenchmarkFig5_5(b *testing.B)    { benchExperiment(b, "fig5.5") }
func BenchmarkFig5_6(b *testing.B)    { benchExperiment(b, "fig5.6") }
func BenchmarkFig5_7(b *testing.B)    { benchExperiment(b, "fig5.7") }
func BenchmarkFig5_7NB(b *testing.B)  { benchExperiment(b, "fig5.7nb") }
func BenchmarkFig6_2(b *testing.B)    { benchExperiment(b, "fig6.2") }
func BenchmarkFig6_4(b *testing.B)    { benchExperiment(b, "fig6.4") }
func BenchmarkTable7_1(b *testing.B)  { benchExperiment(b, "table7.1") }
func BenchmarkBanks(b *testing.B)     { benchExperiment(b, "banks") }
func BenchmarkWilliams(b *testing.B)  { benchExperiment(b, "williams") }

// Extension experiments (footnote 1 and Section 8 future work).
func BenchmarkHilbert(b *testing.B)     { benchExperiment(b, "hilbert") }
func BenchmarkCompress(b *testing.B)    { benchExperiment(b, "compress") }
func BenchmarkParallel(b *testing.B)    { benchExperiment(b, "parallel") }
func BenchmarkLatency(b *testing.B)     { benchExperiment(b, "latency") }
func BenchmarkDRAM(b *testing.B)        { benchExperiment(b, "dram") }
func BenchmarkPrefetch(b *testing.B)    { benchExperiment(b, "prefetch") }
func BenchmarkInterframe(b *testing.B)  { benchExperiment(b, "interframe") }
func BenchmarkReplacement(b *testing.B) { benchExperiment(b, "replacement") }
func BenchmarkSectored(b *testing.B)    { benchExperiment(b, "sectored") }
func BenchmarkWorstCase(b *testing.B)   { benchExperiment(b, "worstcase") }

// --- Sweep benchmarks -----------------------------------------------

// benchSweepConfigs is the eight-configuration sweep both sweep
// benchmarks replay, so their ratio measures the engine's single-pass
// fan-out against one-config-at-a-time serial replay.
func benchSweepConfigs() []texcache.CacheConfig {
	return []texcache.CacheConfig{
		{SizeBytes: 1 << 10, LineBytes: 32, Ways: 1},
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 2},
		{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2},
		{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4},
		{SizeBytes: 16 << 10, LineBytes: 128, Ways: 0},
		{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2},
		{SizeBytes: 64 << 10, LineBytes: 128, Ways: 4},
		{SizeBytes: 128 << 10, LineBytes: 256, Ways: 8},
	}
}

// BenchmarkSerialSweep replays the Goblet trace once per configuration.
func BenchmarkSerialSweep(b *testing.B) {
	tr := gobletTrace(b)
	cfgs := benchSweepConfigs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SimulateConfigs(cfgs)
	}
}

// BenchmarkEngineSweep replays the Goblet trace through one classifying
// cache per configuration in a single concurrent pass; compare with
// BenchmarkSerialSweep on a multi-core machine for the fan-out speedup.
func BenchmarkEngineSweep(b *testing.B) {
	tr := gobletTrace(b)
	cfgs := benchSweepConfigs()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := concurrentStats(ctx, tr, cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupedSweep replays the Goblet trace through all
// configurations with the grouped single-pass simulator: one stack walk
// per distinct line size instead of one replay per configuration.
// Compare with BenchmarkSerialSweep for the per-configuration speedup
// the bench-check gate enforces.
func BenchmarkGroupedSweep(b *testing.B) {
	tr := gobletTrace(b)
	cfgs := benchSweepConfigs()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := texcache.SimulateConfigsGroupedStream(ctx, tr, cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBatch runs a small experiment batch through the full
// engine (shared trace cache, concurrent experiments).
func BenchmarkEngineBatch(b *testing.B) {
	req := texcache.ExperimentRequest{
		Experiments: []string{"fig5.7", "replacement", "sectored"},
		Scenes:      []string{"goblet"},
		Scale:       benchScale(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results, err := texcache.Run(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		for r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// --- Compact trace and trace-store benchmarks -----------------------

// BenchmarkTraceEncode measures delta-encoding a rendered trace into
// the compact form; ratio is the footprint reduction versus the
// materialized 8 bytes/address.
func BenchmarkTraceEncode(b *testing.B) {
	tr := gobletTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	var c *texcache.CompactTrace
	for i := 0; i < b.N; i++ {
		c = texcache.CompactTraceFromTrace(tr)
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "addrs/s")
	b.ReportMetric(c.Ratio(), "ratio")
}

// BenchmarkTraceDecode measures streaming a compact trace back out
// block by block — the per-sink cost a stream replay pays per pass.
func BenchmarkTraceDecode(b *testing.B) {
	c := texcache.CompactTraceFromTrace(gobletTrace(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := c.Cursor()
		for blk := cur.Next(); blk != nil; blk = cur.Next() {
		}
	}
	b.ReportMetric(float64(c.Len())*float64(b.N)/b.Elapsed().Seconds(), "addrs/s")
}

// benchStoreBatch runs the store acceptance batch against dir.
func benchStoreBatch(b *testing.B, dir string) {
	req := texcache.ExperimentRequest{
		Experiments: []string{"fig5.2", "fig5.7"},
		Scenes:      []string{"goblet"},
		Scale:       benchScale(),
	}
	results, err := texcache.Run(context.Background(), req, withTraceStore(b, dir))
	if err != nil {
		b.Fatal(err)
	}
	for r := range results {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

// BenchmarkTraceStoreCold runs an experiment batch against an empty
// trace store each iteration: every trace is rendered and written back.
func BenchmarkTraceStoreCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchStoreBatch(b, b.TempDir())
	}
}

// BenchmarkTraceStoreWarm runs the same batch against a populated
// store: every trace loads from disk and nothing renders. The ratio to
// BenchmarkTraceStoreCold is the warm-start speedup the bench-check
// gate enforces.
func BenchmarkTraceStoreWarm(b *testing.B) {
	dir := b.TempDir()
	benchStoreBatch(b, dir) // populate, untimed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStoreBatch(b, dir)
	}
}

// benchResultBatch streams the store batch's NDJSON through the given
// options, discarding the bytes.
func benchResultBatch(b *testing.B, opts ...texcache.ExperimentOption) {
	req := texcache.ExperimentRequest{
		Experiments: []string{"fig5.2", "fig5.7"},
		Scenes:      []string{"goblet"},
		Scale:       benchScale(),
	}
	err := texcache.RunNDJSON(context.Background(), req, io.Discard, func(r texcache.ExperimentResult) {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}, opts...)
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResultCacheCold streams the batch with an empty result cache
// each iteration: full simulation plus the cache's tee overhead.
func BenchmarkResultCacheCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchResultBatch(b, texcache.WithResultCache(texcache.NewResultCache()))
	}
}

// BenchmarkResultCacheWarm streams the same batch from a populated
// result cache: nothing renders, nothing replays, the stored bytes are
// written out. The ratio to BenchmarkTraceStoreWarm is the result-tier
// speedup the TestResultCacheWarmSpeedup gate enforces.
func BenchmarkResultCacheWarm(b *testing.B) {
	rc := texcache.NewResultCache()
	benchResultBatch(b, texcache.WithResultCache(rc)) // populate, untimed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResultBatch(b, texcache.WithResultCache(rc))
	}
}

// --- Tile-parallel render benchmarks --------------------------------

// benchTraceGen generates all four benchmark scenes' traces at one
// worker count per iteration. The Serial/Parallel pair measures the
// tile-pass speedup recorded in BENCH_engine.json; the parallel leg
// needs a multi-core host to show it (on one core the tile pass is the
// serial scan plus merge overhead).
func benchTraceGen(b *testing.B, workers int) {
	layout := texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8}
	var scenes []*texcache.Scene
	for _, name := range []string{"flight", "guitar", "goblet", "town"} {
		scenes = append(scenes, mustScene(b, name, benchScale()))
	}
	b.ResetTimer()
	var addrs uint64
	for i := 0; i < b.N; i++ {
		for _, s := range scenes {
			tr, _, err := s.TraceParallel(layout, s.DefaultTraversal(), workers)
			if err != nil {
				b.Fatal(err)
			}
			addrs += uint64(len(tr.Addrs))
		}
	}
	b.ReportMetric(float64(addrs)/b.Elapsed().Seconds(), "addrs/s")
}

func BenchmarkTraceGenSerial(b *testing.B)   { benchTraceGen(b, 1) }
func BenchmarkTraceGenParallel(b *testing.B) { benchTraceGen(b, 4) }

// --- Simulator micro-benchmarks -------------------------------------

// gobletTrace renders the Goblet benchmark once and returns its trace.
func gobletTrace(b *testing.B) *texcache.Trace {
	b.Helper()
	s := mustScene(b, "goblet", benchScale())
	tr, _, err := s.Trace(texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8},
		s.DefaultTraversal())
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkCacheAccess measures raw simulator throughput: accesses/sec
// through a 32KB 2-way cache.
func BenchmarkCacheAccess(b *testing.B) {
	tr := gobletTrace(b)
	c, err := texcache.NewCache(texcache.CacheConfig{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		c.Access(tr.Addrs[n])
		n++
		if n == len(tr.Addrs) {
			n = 0
		}
	}
}

// BenchmarkCacheAccessBatch measures the same cache fed in Replay-sized
// blocks through the batch kernel; ns/op stays per-address, so the ratio
// to BenchmarkCacheAccess is the batch speedup the bench-check gate
// enforces.
func BenchmarkCacheAccessBatch(b *testing.B) {
	tr := gobletTrace(b)
	c, err := texcache.NewCache(texcache.CacheConfig{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2})
	if err != nil {
		b.Fatal(err)
	}
	const block = 1 << 14
	b.ResetTimer()
	n := 0
	for left := b.N; left > 0; {
		k := min(block, left, len(tr.Addrs)-n)
		c.AccessBatch(tr.Addrs[n : n+k])
		left -= k
		if n += k; n == len(tr.Addrs) {
			n = 0
		}
	}
}

// BenchmarkCacheAccessClassifying measures the 3C-classification slowdown.
func BenchmarkCacheAccessClassifying(b *testing.B) {
	tr := gobletTrace(b)
	c, err := texcache.NewClassifyingCache(texcache.CacheConfig{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		c.Access(tr.Addrs[n])
		n++
		if n == len(tr.Addrs) {
			n = 0
		}
	}
}

// BenchmarkStackDist measures the one-pass working-set profiler.
func BenchmarkStackDist(b *testing.B) {
	tr := gobletTrace(b)
	sd := texcache.NewStackDist(128)
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		sd.Access(tr.Addrs[n])
		n++
		if n == len(tr.Addrs) {
			n = 0
		}
	}
}

// BenchmarkStackDistBatch measures the profiler fed in Replay-sized
// blocks; ns/op stays per-address for comparison with
// BenchmarkStackDist.
func BenchmarkStackDistBatch(b *testing.B) {
	tr := gobletTrace(b)
	sd := texcache.NewStackDist(128)
	const block = 1 << 14
	b.ResetTimer()
	n := 0
	for left := b.N; left > 0; {
		k := min(block, left, len(tr.Addrs)-n)
		sd.AccessBatch(tr.Addrs[n : n+k])
		left -= k
		if n += k; n == len(tr.Addrs) {
			n = 0
		}
	}
}

// BenchmarkRenderFrame measures full-pipeline frame rendering (fragments
// per second is the metric the Section 7 machine model cares about).
func BenchmarkRenderFrame(b *testing.B) {
	s := mustScene(b, "goblet", benchScale())
	b.ResetTimer()
	var frags uint64
	for i := 0; i < b.N; i++ {
		r, err := s.Render(texcache.RenderOptions{
			Layout:    texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8},
			Traversal: s.DefaultTraversal(),
		})
		if err != nil {
			b.Fatal(err)
		}
		frags += r.Stats.FragmentsTextured
	}
	b.ReportMetric(float64(frags)/b.Elapsed().Seconds(), "fragments/s")
}

// BenchmarkSamplerTrilinear measures the 8-texel filter path.
func BenchmarkSamplerTrilinear(b *testing.B) {
	arena := texcache.NewArena()
	tex, err := texcache.NewTexture(0, texcache.Noise(256, 256, 1),
		texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8}, arena)
	if err != nil {
		b.Fatal(err)
	}
	r := texcache.NewRenderer(64, 64)
	r.Textures = []*texcache.TextureObject{tex}
	cam := texcache.LookAtCamera(texcache.Vec3{Z: 2}, texcache.Vec3{}, texcache.Vec3{Y: 1},
		math.Pi/2, 1, 0.1, 10)
	mesh := &texcache.Mesh{}
	white := texcache.Vec3{X: 1, Y: 1, Z: 1}
	v := func(x, y, u, vv float64) texcache.Vertex {
		return texcache.Vertex{Pos: texcache.Vec3{X: x, Y: y},
			Normal: texcache.Vec3{Z: 1}, UV: texcache.Vec2{X: u, Y: vv}, Color: white}
	}
	mesh.AddQuad(v(-1, -1, 0, 4), v(1, -1, 4, 4), v(1, 1, 4, 0), v(-1, 1, 0, 0), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.FB.Clear()
		r.DrawMesh(mesh, texcache.Identity(), cam)
	}
}

// --- Architecture model benchmarks ----------------------------------

// benchArch times the cycle recurrence of one texture-unit machine over
// the Goblet trace. The timeline capture (the cache replay) is paid
// once outside the loop, exactly as a latency or FIFO-depth sweep does.
func benchArch(b *testing.B, p texcache.ArchPipeline) {
	tr := gobletTrace(b)
	tl, err := texcache.NewArchTimeline(
		texcache.CacheConfig{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2}, tr)
	if err != nil {
		b.Fatal(err)
	}
	cfg := texcache.DefaultArch(tl.CacheConfig(), p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tl.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchBlocking times the blocking baseline's cycle loop.
func BenchmarkArchBlocking(b *testing.B) { benchArch(b, texcache.ArchBlocking) }

// BenchmarkArchPrefetch times the prefetching pipeline's cycle loop.
func BenchmarkArchPrefetch(b *testing.B) { benchArch(b, texcache.ArchPrefetch) }
