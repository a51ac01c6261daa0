package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"texcache/internal/cache"
	"texcache/internal/cas"
	"texcache/internal/exp"
	"texcache/internal/obs"
	"texcache/internal/scenes"
	"texcache/internal/trace"
)

// traceCacheKey is a TraceKey plus the run scale: the full identity of a
// rendered address stream.
type traceCacheKey struct {
	key   exp.TraceKey
	scale int
}

// Budgets for the memory tier: enough for any one batch's working set,
// small enough that a long-lived texserve mixing many (scene, scale,
// layout, traversal) keys stays bounded. Evicted traces re-render (or
// re-load from the store) bit-identically on the next request, so
// eviction is never a correctness event.
const (
	traceMaxEntries = 512
	traceMaxBytes   = 512 << 20
)

// TraceCache memoizes rendered traces keyed by (scene, layout, traversal,
// scale) with single-flight semantics: when several experiments request
// the same stream concurrently, exactly one goroutine produces it and the
// rest wait for that result. It implements exp.TraceProvider, so
// installing one as Config.Traces makes every experiment in a batch share
// renders.
//
// Entries are held in the compact delta encoding (internal/trace), so a
// batch's working set is several times smaller than materialized traces;
// replay consumes the encoded blocks directly. With a Store attached the
// cache gains a persistent tier: a memory miss first tries the store, and
// freshly rendered traces are written back, so a later run with the same
// store skips rendering entirely.
//
// Failed renders are not cached: the entry is removed so a later request
// (perhaps with a different deadline) retries.
type TraceCache struct {
	// RenderWorkers is the tile-parallel rasterization worker count each
	// render uses; zero or negative means GOMAXPROCS, one forces the
	// serial reference path. Traces are bit-identical at any setting.
	// Set before the first SceneTrace call.
	RenderWorkers int

	// Store, when non-nil, is the persistent tier consulted between a
	// memory miss and a render, and written back after each render. Store
	// failures are never fatal: a bad load is a miss, a failed save
	// leaves the in-memory entry intact. Set before the first SceneTrace
	// call.
	Store *trace.Store

	mem       *cas.Memo[traceCacheKey, cache.AddrStream]
	renders   atomic.Int64 // renders actually performed, for tests/metrics
	storeHits atomic.Int64 // loads served by the persistent tier
}

// NewTraceCache returns an empty trace cache.
func NewTraceCache() *TraceCache { return newTraceCache(traceMaxEntries, traceMaxBytes) }

// newTraceCache returns an empty trace cache with the given memory
// budgets.
func newTraceCache(maxEntries int, maxBytes int64) *TraceCache {
	return &TraceCache{mem: cas.NewMemo[traceCacheKey, cache.AddrStream](maxEntries, maxBytes, func() {
		obs.Default().Sub("engine").Sub("trace_cache").Counter("evictions").Inc()
	})}
}

// Renders reports how many renders the cache has actually performed —
// the denominator of its hit rate. Store hits don't count: a warm
// persistent tier serves a whole batch with zero renders.
func (tc *TraceCache) Renders() int { return int(tc.renders.Load()) }

// StoreHits reports how many trace requests the persistent tier served
// without a render — the warm-store number a sharded re-run's "rendered
// nothing" claim rests on.
func (tc *TraceCache) StoreHits() int { return int(tc.storeHits.Load()) }

// Evictions reports how many completed entries the memory tier has
// dropped to stay within its budget.
func (tc *TraceCache) Evictions() int { return tc.mem.Evictions() }

// Len reports the number of completed entries resident in memory.
func (tc *TraceCache) Len() int { return tc.mem.Len() }

// SceneTrace returns the address stream for key at the given scale,
// producing it (store load, else render) on the calling goroutine if no
// other request got there first. Waiters respect ctx: a cancelled waiter
// returns early while the production (owned by another caller) continues
// for whoever still wants it, and a live waiter whose producer was
// cancelled renders the trace itself instead of failing.
func (tc *TraceCache) SceneTrace(ctx context.Context, key exp.TraceKey, scale int) (cache.AddrStream, error) {
	if scale < 1 {
		scale = 1
	}
	ck := traceCacheKey{key: key, scale: scale}
	str, outcome, err := tc.mem.Do(ctx, ck, func() (cache.AddrStream, int64, error) { return tc.produce(ctx, ck) })
	if outcome != cas.Produced {
		// A hit is any request served by an existing entry, including
		// dedupe hits that wait on an in-flight production.
		obs.Default().Sub("engine").Sub("trace_cache").Counter("hits").Inc()
	}
	return str, err
}

// produce fills one cache slot, returning the stream and its resident
// size: persistent tier first, then a render compacted and written back.
func (tc *TraceCache) produce(ctx context.Context, ck traceCacheKey) (cache.AddrStream, int64, error) {
	reg := obs.Default().Sub("engine").Sub("trace_cache")
	key := trace.KeyFor(ck.key.Scene, ck.scale, ck.key.Layout, ck.key.Traversal)
	if tc.Store != nil {
		if c, ok := tc.Store.Load(key); ok {
			tc.storeHits.Add(1)
			reg.Counter("store_hits").Inc()
			return c, int64(c.SizeBytes()), nil
		}
	}
	tc.renders.Add(1)
	reg.Counter("renders").Inc()

	tr, err := renderTrace(ctx, ck, tc.effectiveRenderWorkers())
	if err != nil {
		return nil, 0, err
	}
	c := trace.CompactFromTrace(tr)
	if tc.Store != nil {
		// Best effort: an unwritable store degrades to cold runs, not
		// failures.
		_ = tc.Store.Save(key, c)
	}
	return c, int64(c.SizeBytes()), nil
}

// effectiveRenderWorkers resolves the configured worker count.
func (tc *TraceCache) effectiveRenderWorkers() int {
	if tc.RenderWorkers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return tc.RenderWorkers
}

// renderTrace performs the actual scene render for one cache slot, on
// the tile-parallel path when workers allows it. The trace is
// bit-identical either way. The scene is the shared read-only one for
// (scene, scale), so renders of its other layouts and traversals skip
// rebuilding its textures and geometry.
func renderTrace(ctx context.Context, ck traceCacheKey, workers int) (*cache.Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := scenes.Shared(ctx, ck.key.Scene, ck.scale)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	tr, _, err := s.TraceParallel(ck.key.Layout, ck.key.Traversal, workers)
	return tr, err
}
