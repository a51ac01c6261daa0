package main

// The traced run: the workload's generated requests driven in-process
// through the same serving stack texserve builds (trace cache with its
// store, result cache with its store, engine), with spans recorded around
// each call into a layer from this file, plus isolated probes of the
// render, trace, replay, stack-distance and arch layers over the
// workload's own traces. No program code is instrumented.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"texcache/internal/api"
	"texcache/internal/arch"
	"texcache/internal/cache"
	"texcache/internal/engine"
	"texcache/internal/exp"
	"texcache/internal/obs"
	"texcache/internal/scenes"
	"texcache/internal/trace"
)

// passSize is how many timed requests one in-process pass serves, fixed
// per workload so the exact counts repeat for a seed. paper-batch serves
// its one request.
var passSize = map[string]int{
	"paper-batch":      1,
	"cold-sweep":       32,
	"trace-warm-sweep": 96,
	"hot-repeat":       4000,
}

// Probe sizes: traces the isolated layer probes run over, requests whose
// replay is reproduced in isolation, and minimum sample counts.
const (
	probeTraces   = 4
	probeRequests = 16
	minAPISamples = 64
	serializeReps = 8
)

// layerResult is the traced run's output.
type layerResult struct {
	metrics map[string]metric
	wrong   int
	rec     *recorder
}

// traceID is one rendered stream's identity as the engine keys it.
type traceID struct {
	key   exp.TraceKey
	scale int
}

// timedProvider is a TraceProvider decorator, installed with
// engine.WithTraces: it records a span around every SceneTrace call,
// named trace_cache.produce for the first call for a key (the one the
// single-flight cache renders or loads for) and trace_cache.hit after,
// and logs the keys the workload asked for.
type timedProvider struct {
	inner exp.TraceProvider
	rec   *recorder
	mu    sync.Mutex
	seen  map[traceID]bool
	keys  []traceID
}

func (p *timedProvider) SceneTrace(ctx context.Context, key exp.TraceKey, scale int) (cache.AddrStream, error) {
	id := traceID{key, max(scale, 1)}
	p.mu.Lock()
	first := !p.seen[id]
	if first {
		p.seen[id] = true
		p.keys = append(p.keys, id)
	}
	p.mu.Unlock()
	name := "trace_cache.hit"
	if first {
		name = "trace_cache.produce"
	}
	ctx, end := p.rec.start(ctx, name, 0)
	defer end()
	return p.inner.SceneTrace(ctx, key, scale)
}

// spanWriter is the response writer: it hashes and counts the stream and
// records a write span per Write under the engine span.
type spanWriter struct {
	ctx   context.Context
	rec   *recorder
	h     hash.Hash
	bytes int
}

func (w *spanWriter) Write(p []byte) (int, error) {
	_, end := w.rec.start(w.ctx, "write", 0)
	defer end()
	w.bytes += len(p)
	return w.h.Write(p)
}

// stack is an in-process copy of texserve's serving state.
type stack struct {
	tc   *engine.TraceCache
	rc   *engine.ResultCache
	prov exp.TraceProvider
	tp   *timedProvider // nil on the untraced pass
	rec  *recorder
}

// newStack builds the serving state under dir: stores attached as texserve
// -trace-dir/-result-dir attaches them when stores is set (texsim's batch
// runs without). rec nil builds the untraced stack.
func newStack(dir string, stores bool, rec *recorder) (*stack, error) {
	s := &stack{tc: engine.NewTraceCache(), rc: engine.NewResultCache(), rec: rec}
	if stores {
		st, err := trace.Open(filepath.Join(dir, "traces"))
		if err != nil {
			return nil, err
		}
		s.tc.Store = st
		if err := s.rc.AttachDir(filepath.Join(dir, "results")); err != nil {
			return nil, err
		}
	}
	s.prov = s.tc
	if rec != nil {
		s.tp = &timedProvider{inner: s.tc, rec: rec, seen: map[traceID]bool{}}
		s.prov = s.tp
	}
	return s, nil
}

// served is one request the stack answered.
type served struct {
	sum   [sha256.Size]byte
	bytes int
	hit   bool // served by the result cache
}

// serve is texserve's handler without HTTP: decode and validate, then the
// engine behind the result cache, streaming into a hashing writer.
// onResult sees every result the producing path finishes.
func (s *stack) serve(ctx context.Context, reqID int, body []byte, onResult func(engine.Result)) (served, error) {
	ctx, end := s.rec.start(ctx, "request", reqID)
	defer end()
	_, apiEnd := s.rec.start(ctx, "api", 0)
	req, err := decodeRequest(body)
	apiEnd()
	if err != nil {
		return served{}, err
	}
	ectx, engEnd := s.rec.start(ctx, "engine", 0)
	defer engEnd()
	hits := s.rc.Hits()
	w := &spanWriter{ctx: ectx, rec: s.rec, h: sha256.New()}
	eng := engine.New(engine.WithWorkers(req.Workers), engine.WithRenderWorkers(req.RenderWorkers),
		engine.WithTraces(s.prov), engine.WithResultCache(s.rc))
	if err := eng.RunRequestNDJSON(ectx, req, w, onResult); err != nil {
		return served{}, err
	}
	var out served
	copy(out.sum[:], w.h.Sum(nil))
	out.bytes, out.hit = w.bytes, s.rc.Hits() > hits
	return out, nil
}

// passResult is one in-process pass over the workload's requests.
type passResult struct {
	st      *stack
	wall    time.Duration // the timed requests only, not the warm-up
	out     []served      // per timed request
	results []engine.Result
	reg     *obs.Registry // counters of the timed requests
	renders int           // trace-cache renders during the timed requests
	stored  int           // trace-store hits during the timed requests
}

// pass serves the warm-up bodies (request IDs -1, -2, ...) and then the
// timed bodies (IDs 1, 2, ...) one at a time, on a fresh stack under dir.
func pass(ctx context.Context, dir string, stores bool, rec *recorder, warm, timed [][]byte) (*passResult, error) {
	st, err := newStack(dir, stores, rec)
	if err != nil {
		return nil, err
	}
	p := &passResult{st: st}
	var mu sync.Mutex
	keep := func(r engine.Result) {
		mu.Lock()
		defer mu.Unlock()
		if len(p.results) < 64 {
			p.results = append(p.results, r)
		}
	}
	for i, b := range warm {
		if _, err := st.serve(ctx, -(i + 1), b, keep); err != nil {
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	p.reg = obs.NewRegistry()
	obs.Attach(p.reg)
	defer obs.Detach()
	renders, stored := st.tc.Renders(), st.tc.StoreHits()
	t0 := time.Now()
	for i, b := range timed {
		sv, err := st.serve(ctx, i+1, b, keep)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		p.out = append(p.out, sv)
	}
	p.wall = time.Since(t0)
	p.renders, p.stored = st.tc.Renders()-renders, st.tc.StoreHits()-stored
	return p, nil
}

// traced runs the untraced and the traced pass over the same requests,
// checks every response, probes the layers in isolation and derives the
// per-layer metrics.
func traced(ctx context.Context, e *env, name string, g *gen, o *outcome) (*layerResult, error) {
	n := passSize[name]
	timed := make([][]byte, n)
	for i := range timed {
		timed[i] = g.body(i)
	}
	stores := name != "paper-batch"
	base, err := pass(ctx, filepath.Join(e.work, "pass-untraced"), stores, nil, g.warm, timed)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	p, err := pass(ctx, filepath.Join(e.work, "pass-traced"), stores, rec, g.warm, timed)
	if err != nil {
		return nil, err
	}
	lr := &layerResult{rec: rec, metrics: map[string]metric{}}
	m := lr.metrics
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Correctness: every response of both passes against the reference.
	if name == "paper-batch" {
		goldens, err := loadGoldens(e.root)
		if err != nil {
			return nil, err
		}
		for _, r := range p.results {
			if r.Err != nil || r.Output != goldens[r.ID] {
				lr.wrong++
			}
		}
		lr.wrong += len(goldens) - len(p.results)
	}
	bodies := map[string]bool{}
	for _, b := range timed {
		bodies[string(b)] = true
	}
	refs, err := references(ctx, bodies, e.clients)
	if err != nil {
		return nil, err
	}
	for i, b := range timed {
		for _, q := range []*passResult{base, p} {
			if q.out[i].sum != refs[string(b)] {
				lr.wrong++
			}
		}
	}

	spans := rec.all()
	isTimed := func(s span) bool { return s.Request > 0 }
	var reqSpans, engSpans []span
	for _, s := range spans {
		if !isTimed(s) {
			continue
		}
		switch s.Name {
		case "request":
			reqSpans = append(reqSpans, s)
		case "engine":
			engSpans = append(engSpans, s)
		}
	}

	// api: decode and validate, sampled at least minAPISamples times.
	apiSpans := named(spans, "api")
	for i := 0; len(apiSpans) < minAPISamples; i++ {
		_, end := rec.start(ctx, "api", 0)
		_, err := decodeRequest(timed[i%len(timed)])
		end()
		if err != nil {
			return nil, err
		}
		apiSpans = named(rec.all(), "api")
	}
	put("api.decode_validate_us", median(micros(apiSpans)), "us")

	// Result cache: hits in the timed pass; when there were none, a probe
	// re-serves the first requests, which the pass has just stored.
	var hitEng []span
	hits := 0
	for i, sv := range p.out {
		if sv.hit {
			hits++
			hitEng = append(hitEng, engSpans[i])
		}
	}
	put("result_cache.hit_ratio", share(float64(hits), float64(len(p.out))), "share")
	if len(hitEng) == 0 {
		for i := 0; i < min(probeRequests, len(timed)); i++ {
			sv, err := p.st.serve(ctx, 0, timed[i], nil)
			if err != nil {
				return nil, err
			}
			if !sv.hit || sv.sum != refs[string(timed[i])] {
				lr.wrong++
			}
		}
		for _, s := range named(rec.all(), "engine") {
			if s.Request == 0 {
				hitEng = append(hitEng, s)
			}
		}
	}
	put("result_cache.hit_us", median(micros(hitEng)), "us")

	// Trace cache, through the decorator.
	var tHits, tAll int
	for _, s := range spans {
		if isTimed(s) && (s.Name == "trace_cache.hit" || s.Name == "trace_cache.produce") {
			tAll++
			if s.Name == "trace_cache.hit" {
				tHits++
			}
		}
	}
	put("trace_cache.hit_ratio", share(float64(tHits), float64(tAll)), "share")
	put("trace_cache.renders", float64(p.renders), "count")
	put("trace_cache.store_hits", float64(p.stored), "count")
	keys := probeKeys(p.st.tp.keys)
	if len(named(spans, "trace_cache.hit")) == 0 {
		// No memory hit anywhere in the run: time some on resident keys.
		for _, k := range keys {
			if _, err := p.st.tp.SceneTrace(ctx, k.key, k.scale); err != nil {
				return nil, err
			}
		}
	}
	spans = rec.all()
	produce := named(spans, "trace_cache.produce")
	put("trace_cache.mem_hit_us", median(micros(named(spans, "trace_cache.hit"))), "us")
	put("trace_cache.produce_ms", median(millis(produce)), "ms")

	// Engine self time: the engine span minus its trace-provider and
	// writer children.
	var self, reqMs []float64
	for _, s := range engSpans {
		self = append(self, float64(selfTime(s, spans))/float64(time.Millisecond))
	}
	for _, s := range reqSpans {
		reqMs = append(reqMs, float64(s.Dur())/float64(time.Millisecond))
	}
	put("engine.self_ms", median(self), "ms")
	for _, id := range exp.IDs() {
		put("exp."+id+"_ms", 0, "ms")
	}
	var unitMs []float64 // the per-request latency the untraced run reported
	if name == "paper-batch" {
		busy := 0.0
		for _, r := range p.results {
			ms := float64(r.Elapsed) / float64(time.Millisecond)
			put("exp."+r.ID+"_ms", ms, "ms")
			busy += ms
			unitMs = append(unitMs, ms)
		}
		put("engine.busy_share", share(busy, sum(millis(engSpans))*float64(runtime.GOMAXPROCS(0))), "share")
	} else {
		put("engine.busy_share", share(sum(millis(engSpans)), float64(p.wall)/float64(time.Millisecond)), "share")
		unitMs = reqMs
	}
	put("http.overhead_ms", o.metrics["latency_p50_ms"].Value-median(unitMs), "ms")
	put("trace_overhead_share", overheadShare(p.wall, base.wall), "share")

	// report/NDJSON: re-serialize recorded results into a discard writer.
	put("serialize.us", serializeUs(p.results, name == "paper-batch"), "us")
	written := 0
	for _, sv := range p.out {
		written += sv.bytes
	}
	put("write.bytes", float64(written), "count")

	// Replay counters the timed requests incremented.
	gs := p.reg.Sub("groupsim")
	put("replay.grouped_configs", float64(gs.Counter("grouped_configs").Value()), "count")
	put("replay.fallback_configs", float64(gs.Counter("fallback_configs").Value()), "count")
	put("replay.passes_saved", float64(gs.Counter("passes_saved").Value()), "count")

	// Isolated probes over the workload's own traces.
	if err := probeLayers(ctx, e, p.st, keys, put); err != nil {
		return nil, err
	}
	replayMs, selfMs, err := replayShare(ctx, p, timed, self, put)
	if err != nil {
		return nil, err
	}
	put("reconcile.replay_share", share(replayMs, selfMs), "share")
	put("reconcile.render_share", renderShare(m), "share")
	return lr, nil
}

// renderShare is the part of a trace-cache production the isolated
// probes account for: render, compact encode and store save, over the
// median produce span.
func renderShare(m map[string]metric) float64 {
	return share(m["render.ms_per_trace"].Value+m["trace.encode_ms"].Value+m["trace.store_save_ms"].Value,
		m["trace_cache.produce_ms"].Value)
}

// overheadShare is what tracing added to a pass: (traced - untraced) /
// untraced wall time.
func overheadShare(traced, untraced time.Duration) float64 {
	return share(float64(traced-untraced), float64(untraced))
}

// probeKeys picks probeTraces of the keys a run asked for, evenly spaced
// in a fixed order, so the same seed probes the same traces.
func probeKeys(all []traceID) []traceID {
	ks := append([]traceID(nil), all...)
	sort.Slice(ks, func(i, j int) bool { return fmt.Sprint(ks[i]) < fmt.Sprint(ks[j]) })
	if len(ks) <= probeTraces {
		return ks
	}
	out := make([]traceID, probeTraces)
	for i := range out {
		out[i] = ks[i*len(ks)/probeTraces]
	}
	return out
}

// serializeUs times StreamNDJSON of recorded results into a discard
// writer: each result as its own stream, or for a batch all of them as
// one stream, repeated.
func serializeUs(results []engine.Result, batch bool) float64 {
	stream := func(rs []engine.Result) float64 {
		ch := make(chan engine.Result, len(rs))
		for i, r := range rs {
			r.Index = i
			ch <- r
		}
		close(ch)
		t0 := time.Now()
		engine.StreamNDJSON(io.Discard, ch, nil)
		return float64(time.Since(t0)) / float64(time.Microsecond)
	}
	var us []float64
	if batch {
		for i := 0; i < serializeReps; i++ {
			us = append(us, stream(results))
		}
	} else {
		for _, r := range results {
			us = append(us, stream([]engine.Result{r}))
		}
	}
	return median(us)
}

// paperSweep is the configuration sweep replay probes use where the
// workload sends none of its own: the paper's curve sizes at 128B lines,
// fully associative and 2-way.
func paperSweep() []cache.Config {
	var out []cache.Config
	for s := 1 << 10; s <= 256<<10; s <<= 1 {
		out = append(out, cache.Config{SizeBytes: s, LineBytes: 128}, cache.Config{SizeBytes: s, LineBytes: 128, Ways: 2})
	}
	return out
}

// probeLayers renders, encodes, stores, loads, decodes and replays each
// probe trace in isolation and records the per-layer costs.
func probeLayers(ctx context.Context, e *env, st *stack, keys []traceID, put func(string, float64, string)) error {
	var par, ser, enc, save, load, ratio, tl, sim []float64
	var addrs, decodeSec, batchSec, sdSec, groupedSec, groupedWork float64
	var batchN, sdN float64
	store, err := trace.Open(filepath.Join(e.work, "probe-store"))
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	workers := runtime.GOMAXPROCS(0)
	for _, k := range keys {
		render := func(workers int) (*cache.Trace, float64, error) {
			sc, err := scenes.ByNameChecked(k.key.Scene, k.scale)
			if err != nil {
				return nil, 0, err
			}
			t0 := time.Now()
			tr, _, err := sc.TraceParallel(k.key.Layout, k.key.Traversal, workers)
			return tr, float64(time.Since(t0)) / float64(time.Millisecond), err
		}
		obs.Attach(reg)
		tr, ms, err := render(workers)
		obs.Detach()
		if err != nil {
			return err
		}
		par = append(par, ms)
		addrs += float64(tr.Len())
		if _, ms, err = render(1); err != nil {
			return err
		}
		ser = append(ser, ms)

		t0 := time.Now()
		c := trace.CompactFromTrace(tr)
		enc = append(enc, float64(time.Since(t0))/float64(time.Millisecond))
		ratio = append(ratio, c.Ratio())
		t0 = time.Now()
		n := 0
		cur := c.Cursor()
		for b := cur.Next(); b != nil; b = cur.Next() {
			n += len(b)
		}
		decodeSec += time.Since(t0).Seconds()
		if n != tr.Len() {
			return fmt.Errorf("probe: decoded %d addresses of %d", n, tr.Len())
		}
		sk := trace.Key{Scene: k.key.Scene, Scale: k.scale, Layout: fmt.Sprintf("%+v", k.key.Layout),
			Traversal: fmt.Sprintf("%+v", k.key.Traversal), Version: trace.CodecVersion}
		t0 = time.Now()
		if err := store.Save(sk, c); err != nil {
			return err
		}
		save = append(save, float64(time.Since(t0))/float64(time.Millisecond))
		t0 = time.Now()
		if _, ok := store.Load(sk); !ok {
			return fmt.Errorf("probe: store lost %v", sk)
		}
		load = append(load, float64(time.Since(t0))/float64(time.Millisecond))

		cfg := api.DefaultArchCache()
		t0 = time.Now()
		cache.New(cfg).AccessBatch(tr.Addrs)
		batchSec += time.Since(t0).Seconds()
		batchN += float64(tr.Len())
		t0 = time.Now()
		cache.NewStackDist(cfg.LineBytes).AccessBatch(tr.Addrs)
		sdSec += time.Since(t0).Seconds()
		sdN += float64(tr.Len())
		cfgs := paperSweep()
		t0 = time.Now()
		if _, err := cache.SimulateConfigsGroupedStream(ctx, c, cfgs); err != nil {
			return err
		}
		groupedSec += time.Since(t0).Seconds()
		groupedWork += float64(tr.Len() * len(cfgs))

		t0 = time.Now()
		timeline, err := arch.NewTimeline(cfg, c)
		if err != nil {
			return err
		}
		tl = append(tl, float64(time.Since(t0))/float64(time.Millisecond))
		for _, pl := range []arch.Pipeline{arch.Blocking, arch.Prefetch} {
			t0 = time.Now()
			if _, err := timeline.Simulate(arch.Default(cfg, pl)); err != nil {
				return err
			}
			sim = append(sim, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	rs := reg.Sub("render")
	put("render.ms_per_trace", median(par), "ms")
	put("render.serial_ms_per_trace", median(ser), "ms")
	put("render.parallel_speedup", share(sum(ser), sum(par)), "x")
	put("render.addrs_per_s", share(addrs, sum(par)/1000), "1/s")
	put("render.fragments", float64(rs.Counter("fragments").Value()), "count")
	put("render.texel_fetches", float64(rs.Counter("texel_fetches").Value()), "count")
	put("trace.encode_ms", median(enc), "ms")
	put("trace.decode_addrs_per_s", share(addrs, decodeSec), "1/s")
	put("trace.compact_ratio", median(ratio), "x")
	put("trace.store_save_ms", median(save), "ms")
	put("trace.store_load_ms", median(load), "ms")
	put("replay.batch_ns_per_access", share(batchSec*1e9, batchN), "ns")
	put("stackdist.ns_per_access", share(sdSec*1e9, sdN), "ns")
	put("arch.timeline_ms", median(tl), "ms")
	put("arch.simulate_us", median(sim), "us")
	if groupedWork > 0 {
		put("replay.grouped_ns_per_access_config", groupedSec*1e9/groupedWork, "ns")
	}
	return os.RemoveAll(filepath.Join(e.work, "probe-store"))
}

// replayShare replays the cache work of those of the first probeRequests
// timed requests that the result cache did not serve, in isolation over
// the traces the pass left resident, and returns its total next to the
// engine self time of the same requests. Where the
// workload sends sweep requests, their grouped replay also sets
// replay.grouped_ns_per_access_config.
func replayShare(ctx context.Context, p *passResult, timed [][]byte, self []float64, put func(string, float64, string)) (replayMs, selfMs float64, err error) {
	var groupedSec, groupedWork float64
	for i := 0; i < min(probeRequests, len(timed)); i++ {
		req, err := decodeRequest(timed[i])
		if err != nil {
			return 0, 0, err
		}
		kind := req.Kind()
		if p.out[i].hit || (kind != api.KindSweep && kind != api.KindArchitecture) {
			// The engine replayed nothing for a result-cache hit.
			continue
		}
		str, err := p.st.tc.SceneTrace(ctx, exp.TraceKey{Scene: req.Scene, Layout: req.LayoutSpec(), Traversal: req.RasterTraversal()}, req.Scale)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		if kind == api.KindSweep {
			cfgs := req.CacheConfigs()
			if _, err := cache.SimulateConfigsGroupedStream(ctx, str, cfgs); err != nil {
				return 0, 0, err
			}
			groupedSec += time.Since(t0).Seconds()
			groupedWork += float64(str.Len() * len(cfgs))
		} else {
			timelines := map[cache.Config]*arch.Timeline{}
			for _, mc := range req.ArchConfigs() {
				tl, ok := timelines[mc.Cache]
				if !ok {
					if tl, err = arch.NewTimeline(mc.Cache, str); err != nil {
						return 0, 0, err
					}
					timelines[mc.Cache] = tl
				}
				if _, err := tl.Simulate(mc); err != nil {
					return 0, 0, err
				}
			}
		}
		replayMs += float64(time.Since(t0)) / float64(time.Millisecond)
		selfMs += self[i]
	}
	if groupedWork > 0 {
		put("replay.grouped_ns_per_access_config", groupedSec*1e9/groupedWork, "ns")
	}
	return replayMs, selfMs, nil
}
