package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"texcache/internal/api"
	"texcache/internal/scenes"
)

// benchScale is the resolution divisor of every generated request. Scale 4
// is the scale the committed goldens pin, so paper-batch output checks
// against them, and it keeps one cold render near 50ms on two CPUs.
const benchScale = 4

// Workload rationale. Each workload exists to make one group of layers do
// most of the work, so that a change to that group moves this workload and
// leaves the others where they were.
const (
	// paper-batch is the reproduction's own job: `texsim -exp all -scale 4`,
	// one process per run, no stores. It is the only workload that drives
	// internal/exp, cache.StackDist (fig5.2/5.4/6.2/6.4, worstcase,
	// extensions, memory), the igehy arch sweep and the engine batch
	// scheduler, and at scale 4 its output checks against the goldens.
	whyPaperBatch = "the paper's own 26-experiment batch: exp registry, stack distance, engine batch scheduler; checked against the goldens"
	// cold-sweep sends every request to a new (scene, layout, traversal)
	// key with two set-associative configs, against a texserve whose trace
	// and result stores start empty: each request renders, compact-encodes,
	// writes both stores and replays a little. The result cache never hits.
	whyColdSweep = "distinct trace keys on empty stores: render, trace codec and store writes dominate; the result cache never hits"
	// trace-warm-sweep warms the trace cache untimed (one request per key)
	// and then sends a distinct balanced 20-config set per request, a
	// quarter of them architecture requests: grouped replay, the batch
	// kernel, the per-config fallback and the arch timeline do the work;
	// render does none and the result cache always misses.
	whyTraceWarm = "resident traces, new config sets: grouped replay, per-config fallback and the arch timeline dominate"
	// hot-repeat warms the result cache untimed for 32 keys and then draws
	// requests from those keys: HTTP, api decode/validate, admission, the
	// result-cache lookup and the response write do all the work, with zero
	// renders and zero simulations. Every read path here is a write path in
	// cold-sweep.
	whyHotRepeat = "repeats of 32 cached requests: HTTP, api decode, admission and result-cache hits only"
)

// Generation sizes. traceWarmKeys trace keys are warmed for
// trace-warm-sweep; hotKeys result keys for hot-repeat (eight config sets
// per scene over one trace each). A timed block is coldBlock,
// traceWarmBlock or hotBlock requests, about a second's work on two CPUs;
// coldBlock holds three keys of each scene, one per scan order, and
// traceWarmBlock one rotation of every kind of trace-warm-sweep request, so
// all blocks of a workload do the same mix of work.
const (
	traceWarmKeys  = 8
	hotKeys        = 32
	coldBlock      = 12
	traceWarmBlock = 32
	hotBlock       = 8000
)

// gen produces the request bodies of one workload from its seed. Bodies
// are a pure function of (seed, index): the same seed yields the same
// sequence, and cold-sweep's sequence never repeats a trace key within the
// range a run can reach.
type gen struct {
	seed int64
	// layouts[s], orders[s] and tiles[s] are scene s's seeded orders of
	// the layout, scan-order and tile-shape choices.
	layouts [][]api.Layout
	orders  [][]string
	tiles   [][][2]int
	// warm are the untimed warm-up bodies; pool the bodies hot-repeat
	// draws from (nil for the other workloads).
	warm, pool [][]byte
	// warmKeys are the trace keys trace-warm-sweep warms.
	warmKeys []traceKey
	// body returns timed request i.
	body func(i int) []byte
	// block is how many timed requests make one block, the unit of work a
	// run times.
	block int
}

// traceKey is a trace key in wire form: scene, layout and traversal.
type traceKey struct {
	scene     string
	layout    api.Layout
	traversal api.Traversal
}

// layoutChoices lists the valid layouts the generators draw from: every
// kind the api accepts, over the block, pad, super-block and ratio
// parameters the paper's figures use.
func layoutChoices() []api.Layout {
	out := []api.Layout{{Kind: "nonblocked"}, {Kind: "williams"}}
	for _, bw := range []int{2, 4, 8, 16} {
		out = append(out, api.Layout{Kind: "blocked", BlockW: bw})
	}
	for _, bw := range []int{4, 8, 16} {
		for _, pad := range []int{1, 2, 4} {
			out = append(out, api.Layout{Kind: "padded", BlockW: bw, PadBlocks: pad})
		}
	}
	for _, bw := range []int{4, 8} {
		for _, sb := range []int{1 << 10, 4 << 10, 16 << 10} {
			out = append(out, api.Layout{Kind: "6d", BlockW: bw, SuperBytes: sb})
		}
	}
	for _, bw := range []int{4, 8} {
		for _, ratio := range []int{2, 4} {
			out = append(out, api.Layout{Kind: "compressed", BlockW: bw, Ratio: ratio})
		}
	}
	return out
}

// Scan orders and tile shapes (width, height; 0 is untiled) the sweep
// generators combine into traversals.
var (
	scanOrders = []string{"horizontal", "vertical", "hilbert"}
	tileShapes = [][2]int{{0, 0}, {8, 8}, {16, 16}, {32, 32}, {64, 16}, {16, 64}}
)

// newGen builds the generator of the named workload.
func newGen(workload string, seed int64) (*gen, error) {
	g := &gen{seed: seed}
	rng := rand.New(rand.NewSource(seed))
	names := scenes.Names()
	for range names {
		ls := layoutChoices()
		ords, ts := slices.Clone(scanOrders), slices.Clone(tileShapes)
		if workload != "hot-repeat" {
			// No williams layout on the sweeps: its component-separated
			// trace is several times longer than any other, so a run would
			// cost more or less depending on how many of its keys it
			// happened to draw.
			ls = slices.DeleteFunc(ls, func(l api.Layout) bool { return l.Kind == "williams" })
		}
		rng.Shuffle(len(ls), func(i, j int) { ls[i], ls[j] = ls[j], ls[i] })
		rng.Shuffle(len(ords), func(i, j int) { ords[i], ords[j] = ords[j], ords[i] })
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		g.layouts = append(g.layouts, ls)
		g.orders = append(g.orders, ords)
		g.tiles = append(g.tiles, ts)
	}
	switch workload {
	case "paper-batch":
		// texsim's own request: every experiment at the golden scale. The
		// seed changes nothing the program sees; it is recorded with the
		// result like every other workload's.
		b := mustJSON(api.ExperimentRequest{Scale: benchScale})
		g.body = func(int) []byte { return b }
	case "cold-sweep":
		// Keys never repeat, so every request renders.
		g.body = g.coldBody
		g.block = coldBlock
	case "trace-warm-sweep":
		// Goblet only: a full replay of a goblet trace costs a few
		// milliseconds, so a 20-config request with per-config fallbacks
		// still completes in tens of milliseconds and a run collects
		// hundreds of samples. The keys are the same for every seed: the
		// grouped simulator walks the recency stack as deep as each reuse
		// distance, so replay cost follows the trace's locality, and seeded
		// keys made one seed's runs cost a fifth more than another's. The
		// seed picks the config sets.
		for _, k := range traceWarmKeyList() {
			g.warmKeys = append(g.warmKeys, k)
			g.warm = append(g.warm, mustJSON(sweep(twoWay(), k)))
		}
		// Every timed config set is new, so no timed request hits the
		// result cache.
		g.body = g.traceWarmBody
		g.block = traceWarmBlock
	case "hot-repeat":
		// Eight config sets over one trace per scene, each scene at the
		// paper's default layout and scan order: the warm-up renders the
		// same four traces whatever the seed, so set-up time and memory do
		// not depend on it; the seed picks the config sets.
		seen := map[string]bool{}
		for len(g.pool) < hotKeys {
			scene := names[len(g.pool)%len(names)]
			req := api.ExperimentRequest{Scene: scene, Configs: configSet(rng, 2, 4), Scale: benchScale}
			if id := req.ResultIdentity(); !seen[id] {
				seen[id] = true
				g.pool = append(g.pool, mustJSON(req))
			}
		}
		g.warm = g.pool
		g.block = hotBlock
		// A stateless mix, not a rand source per request: the draw costs
		// nanoseconds on the CPUs texserve shares.
		g.body = func(i int) []byte {
			return g.pool[splitmix64(uint64(seed)+uint64(i))%uint64(len(g.pool))]
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return g, nil
}

// traceWarmKeyList is trace-warm-sweep's eight goblet keys: the paper's
// layout kinds under each scan order, untiled and tiled.
func traceWarmKeyList() []traceKey {
	key := func(l api.Layout, order string, tw, th int) traceKey {
		return traceKey{scene: "goblet", layout: l, traversal: api.Traversal{Order: order, TileW: tw, TileH: th}}
	}
	return []traceKey{
		key(api.Layout{Kind: "nonblocked"}, "horizontal", 0, 0),
		key(api.Layout{Kind: "blocked", BlockW: 4}, "horizontal", 16, 16),
		key(api.Layout{Kind: "blocked", BlockW: 8}, "hilbert", 0, 0),
		key(api.Layout{Kind: "padded", BlockW: 8, PadBlocks: 2}, "vertical", 0, 0),
		key(api.Layout{Kind: "6d", BlockW: 4, SuperBytes: 4 << 10}, "horizontal", 32, 32),
		key(api.Layout{Kind: "compressed", BlockW: 4, Ratio: 4}, "hilbert", 16, 16),
		key(api.Layout{Kind: "blocked", BlockW: 16}, "vertical", 64, 16),
		key(api.Layout{Kind: "6d", BlockW: 8, SuperBytes: 16 << 10}, "hilbert", 64, 16),
	}
}

// splitmix64 is SplitMix64's output function: a well-mixed 64-bit hash of
// x.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// keyAt is trace key i of cold-sweep's sequence: scene i mod 4, and that
// scene's key i/4.
func (g *gen) keyAt(i int) traceKey {
	n := len(scenes.Names())
	return g.sceneKey(i%n, i/n)
}

// sceneKey is scene s's key j: scan order j mod 3, and with m = j/3,
// layout m mod L and tile shape (m + m/L) mod 6 of the scene's seeded
// orders (L = 24 layouts; the pairs are distinct for m below 6L = 144).
// Every three consecutive keys of a scene take each scan order once: a
// Hilbert scan of town renders ten times slower than the others, so a block
// of cold-sweep requests costs the same as the next only if each holds the
// same number of them. Keys are distinct for j below 432 per scene, 1728 in
// all, several times what one 10s run sends; the seed moves which layout
// meets which scan order and tile shape.
func (g *gen) sceneKey(s, j int) traceKey {
	m := j / len(scanOrders)
	ls := g.layouts[s]
	tile := g.tiles[s][(m+m/len(ls))%len(tileShapes)]
	return traceKey{
		scene:     scenes.Names()[s],
		layout:    ls[m%len(ls)],
		traversal: api.Traversal{Order: g.orders[s][j%len(scanOrders)], TileW: tile[0], TileH: tile[1]},
	}
}

// sweep builds a sweep request replaying cfgs over trace key k.
func sweep(cfgs []api.CacheConfig, k traceKey) api.ExperimentRequest {
	l, t := k.layout, k.traversal
	return api.ExperimentRequest{
		Scene: k.scene, Layout: &l, Traversal: &t, Configs: cfgs, Scale: benchScale,
	}
}

// twoWay is the two set-associative configs a cold-sweep request replays:
// the paper's 32KB 2-way point and a 16KB direct-mapped cache.
func twoWay() []api.CacheConfig {
	return []api.CacheConfig{
		{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2},
		{SizeBytes: 16 << 10, LineBytes: 64, Ways: 1},
	}
}

// coldBody is cold-sweep request i: trace key i, two set-associative
// configs.
func (g *gen) coldBody(i int) []byte {
	return mustJSON(sweep(twoWay(), g.keyAt(i)))
}

// traceWarmBody is trace-warm-sweep request i: one of the warmed goblet
// trace keys, in rotation, with a seeded balanced set of 20 configs. Every
// fourth rotation is architecture requests over two set-associative LRU
// design points instead, so each key serves both kinds.
func (g *gen) traceWarmBody(i int) []byte {
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + int64(i)))
	k := g.warmKeys[i%traceWarmKeys]
	if (i/traceWarmKeys)%4 == 3 {
		req := sweep([]api.CacheConfig{drawConfig(rng, 64, 2, "lru"), drawConfig(rng, 128, 2, "lru")}, k)
		req.Architecture = &api.Architecture{FillLatency: 50 + rng.Intn(8)*25}
		return mustJSON(req)
	}
	return mustJSON(sweep(balancedSet(rng), k))
}

// balancedSet is one trace-warm-sweep request's configs: for each line
// size from 32 to 256 bytes, one config of each of five kinds — fully
// associative LRU, direct mapped, and set-associative LRU, FIFO and random
// (the last two take the grouped simulator's per-config fallback) — with
// seeded sizes and ways. Every request then does the same kinds of work in
// the same amounts, and only the sizes and ways change with the seed.
func balancedSet(rng *rand.Rand) []api.CacheConfig {
	var out []api.CacheConfig
	for line := 32; line <= 256; line *= 2 {
		out = append(out,
			drawConfig(rng, line, 0, ""),
			drawConfig(rng, line, 1, "lru"),
			drawConfig(rng, line, 2, "lru"),
			drawConfig(rng, line, 2, "fifo"),
			drawConfig(rng, line, 2, "random"))
	}
	return out
}

// drawConfig draws a valid config with the given line size and policy:
// ways 0 is fully associative, 1 direct mapped, and 2 a seeded 2, 4 or 8
// ways; the size is a seeded power of two from 1KB to 256KB that holds at
// least one set.
func drawConfig(rng *rand.Rand, line, ways int, policy string) api.CacheConfig {
	if ways == 2 {
		ways = []int{2, 4, 8}[rng.Intn(3)]
	}
	for {
		c := api.CacheConfig{SizeBytes: 1 << (10 + rng.Intn(9)), LineBytes: line, Ways: ways, Policy: policy}
		if c.SizeBytes/c.LineBytes >= max(c.Ways, 1) {
			return c
		}
	}
}

// configSet draws between lo and hi distinct valid cache configs: sizes
// 1KB-256KB, lines 32-256B, fully associative LRU, direct mapped, and
// 2/4/8-way with LRU, FIFO or random replacement.
func configSet(rng *rand.Rand, lo, hi int) []api.CacheConfig {
	n := lo + rng.Intn(hi-lo+1)
	seen := map[api.CacheConfig]bool{}
	var out []api.CacheConfig
	for len(out) < n {
		c := api.CacheConfig{
			SizeBytes: 1 << (10 + rng.Intn(9)),
			LineBytes: 1 << (5 + rng.Intn(4)),
			Ways:      []int{0, 0, 1, 2, 4, 8}[rng.Intn(6)],
		}
		if c.Ways > 0 {
			c.Policy = []string{"lru", "lru", "fifo", "random"}[rng.Intn(4)]
		}
		if c.SizeBytes/c.LineBytes < max(c.Ways, 1) || seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}

// mustJSON encodes a request body. Requests are plain data, so Marshal
// cannot fail.
func mustJSON(req api.ExperimentRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic("perfbench: marshaling request: " + err.Error())
	}
	return b
}
