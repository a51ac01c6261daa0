// Package engine runs batches of registered experiments concurrently.
// Two levels of sharing make a batch cheaper than the sum of its parts:
// a keyed single-flight trace cache renders each (scene, layout,
// traversal) stream once for every experiment that needs it, and the
// cache layer's concurrent replay lets one pass over a trace feed a
// whole sweep of cache configurations. Results stream back on a channel
// as experiments finish, tagged with their position in the request so
// callers can re-serialize deterministic output.
package engine

import (
	"context"
	"runtime"
	"sync"
	"time"

	"texcache/internal/exp"
	"texcache/internal/obs"
	"texcache/internal/report"
	"texcache/internal/trace"
)

// Result is one finished experiment. Index is the experiment's position
// in the requested ID list, so a consumer that wants the serial order
// can reorder the stream by Index.
type Result struct {
	Index   int
	ID      string
	Title   string
	Output  string // the text rendering of everything the experiment emitted
	Err     error  // non-nil if the experiment failed or was cancelled
	Elapsed time.Duration
	// Report is the recorded structured output, replayable into any
	// report.Reporter (e.g. report.JSON for machine-readable batches).
	// Nil when the experiment was skipped before running.
	Report *report.Recording
}

// Progress describes one completed (or skipped) experiment within a
// running batch, for live progress display.
type Progress struct {
	// Completed counts experiments finished so far, including this one;
	// Total is the batch size.
	Completed, Total int
	// ID names the experiment that just finished.
	ID string
	// Elapsed is its wall time (zero when skipped before running).
	Elapsed time.Duration
	// Err is the experiment's error, nil on success.
	Err error
}

// Options configures an engine.
type Options struct {
	// Workers bounds how many experiments run at once. Zero or negative
	// means GOMAXPROCS.
	Workers int
	// RenderWorkers is the tile-parallel rasterization worker count for
	// the engine-installed trace cache. Zero or negative means
	// GOMAXPROCS; one forces serial rendering. Traces (and therefore
	// every experiment's output) are bit-identical at any setting.
	// Ignored when the caller supplies its own Config.Traces provider.
	RenderWorkers int
	// TraceDir, when non-empty, attaches a persistent on-disk trace
	// store to the engine-installed trace cache: renders are written
	// back and later batches load them instead of rendering. Results are
	// bit-identical with or without it. Ignored when the caller supplies
	// its own Config.Traces provider.
	TraceDir string
	// Progress, when non-nil, is called once per finished experiment.
	// Calls are serialized and Completed is monotonic, but they arrive in
	// completion order, not request order. The callback runs on an engine
	// goroutine and must not block on the result channel.
	Progress func(Progress)
	// Traces, when non-nil, is the trace provider installed on every
	// batch whose Config does not bring its own — the hook through which
	// a long-running server shares one TraceCache (and its coalesced
	// renders) across many engines. RenderWorkers and TraceDir are
	// ignored when it is set.
	Traces exp.TraceProvider
	// ResultCache, when non-nil, is the finished-stream memoization tier
	// RunRequestNDJSON consults before running anything — the hook
	// through which a long-running server serves repeated requests as
	// stored bytes. Shared caches coalesce identical concurrent requests
	// onto one simulation. ResultDir is ignored when it is set.
	ResultCache *ResultCache
	// ResultDir, when non-empty and ResultCache is nil, attaches a fresh
	// result cache with a persistent tier rooted at this directory, so
	// repeated NDJSON runs across process restarts are served from
	// <sha256(key)>.result files instead of re-simulated.
	ResultDir string
}

// Option mutates Options.
type Option func(*Options)

// WithWorkers bounds the number of concurrently running experiments.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithRenderWorkers sets the tile-parallel rasterization worker count
// used by the engine's trace cache (0 = GOMAXPROCS, 1 = serial).
func WithRenderWorkers(n int) Option { return func(o *Options) { o.RenderWorkers = n } }

// WithProgress installs a per-experiment completion callback.
func WithProgress(fn func(Progress)) Option { return func(o *Options) { o.Progress = fn } }

// WithTraceDir attaches a persistent trace store rooted at dir to the
// engine's trace cache; empty disables the store.
func WithTraceDir(dir string) Option { return func(o *Options) { o.TraceDir = dir } }

// WithResultCache installs a shared result cache on the engine: every
// RunRequestNDJSON call checks it before simulating, so
// repeated requests are served as stored bytes and identical concurrent
// requests coalesce onto one run.
func WithResultCache(rc *ResultCache) Option {
	return func(o *Options) { o.ResultCache = rc }
}

// WithResultDir attaches a persistent result store rooted at dir to a
// fresh engine-owned result cache; empty disables result caching.
// Ignored when WithResultCache installs a shared cache.
func WithResultDir(dir string) Option { return func(o *Options) { o.ResultDir = dir } }

// WithTraces installs a shared trace provider on the engine: every batch
// run without its own Config.Traces uses it instead of a fresh
// TraceCache, so renders coalesce across batches (and, in texserve,
// across client requests).
func WithTraces(p exp.TraceProvider) Option {
	return func(o *Options) { o.Traces = p }
}

// Engine schedules experiment batches.
type Engine struct {
	opts Options
}

// New returns an engine with the given options applied over defaults
// (Workers = GOMAXPROCS).
func New(opts ...Option) *Engine {
	o := Options{Workers: runtime.GOMAXPROCS(0)}
	for _, f := range opts {
		f(&o)
	}
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{opts: o}
}

// Run executes the experiments named by ids (all registered experiments
// when ids is empty) and streams one Result per experiment as each
// finishes. The returned channel is closed after the last result.
//
// Unknown IDs fail fast with *exp.UnknownExperimentError before any work
// starts. When cfg.Traces is nil the engine installs a shared TraceCache
// so the batch renders each needed (scene, layout, traversal) stream
// exactly once; a caller-supplied provider is left in place.
//
// Cancelling ctx stops the batch: queued experiments are skipped and
// running ones return their context error, reported through Result.Err.
func (e *Engine) Run(ctx context.Context, ids []string, cfg exp.Config) (<-chan Result, error) {
	exps, err := resolve(ids)
	if err != nil {
		return nil, err
	}
	if cfg.Traces == nil {
		p, err := e.traces()
		if err != nil {
			return nil, err
		}
		cfg.Traces = p
	}

	out := make(chan Result, len(exps))
	sem := make(chan struct{}, e.opts.Workers)
	var wg sync.WaitGroup

	// Engine-level metrics: queue depth (experiments waiting for a
	// worker slot), busy workers, and a completion counter. All handles
	// are nil when no registry is attached, making every update a no-op.
	reg := obs.Default().Sub("engine")
	queued := reg.Gauge("queue_depth")
	busy := reg.Gauge("busy_workers")
	finished := reg.Counter("experiments")

	// progress serializes the completion callback and keeps Completed
	// monotonic across concurrently finishing experiments.
	var progressMu sync.Mutex
	completed := 0
	progress := func(r Result) {
		finished.Inc()
		if e.opts.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		completed++
		e.opts.Progress(Progress{
			Completed: completed, Total: len(exps),
			ID: r.ID, Elapsed: r.Elapsed, Err: r.Err,
		})
	}

	go func() {
		defer close(out)
		e.prewarm(ctx, exps, cfg, sem)
		for i, ex := range exps {
			wg.Add(1)
			go func(i int, ex exp.Experiment) {
				defer wg.Done()
				queued.Add(1)
				select {
				case sem <- struct{}{}:
					queued.Add(-1)
					busy.Add(1)
					defer func() {
						busy.Add(-1)
						<-sem
					}()
				case <-ctx.Done():
					queued.Add(-1)
					r := Result{Index: i, ID: ex.ID, Title: ex.Title, Err: ctx.Err()}
					progress(r)
					out <- r
					return
				}
				r := runOne(ctx, i, ex, cfg)
				progress(r)
				out <- r
			}(i, ex)
		}
		wg.Wait()
		obs.Default().Emit("batch.done", "", int64(len(exps)))
	}()
	return out, nil
}

// traces resolves the trace provider a batch uses when its Config does
// not bring one: the engine's shared provider when installed, otherwise
// a fresh single-flight TraceCache (with the persistent tier attached
// when TraceDir is set).
func (e *Engine) traces() (exp.TraceProvider, error) {
	if e.opts.Traces != nil {
		return e.opts.Traces, nil
	}
	tc := NewTraceCache()
	tc.RenderWorkers = e.opts.RenderWorkers
	if e.opts.TraceDir != "" {
		store, err := trace.Open(e.opts.TraceDir)
		if err != nil {
			return nil, err
		}
		tc.Store = store
	}
	return tc, nil
}

// results resolves the result cache RunRequestNDJSON uses: the shared
// cache when installed, else a fresh one with the persistent tier when
// ResultDir is set, else nil (no result caching).
func (e *Engine) results() (*ResultCache, error) {
	if e.opts.ResultCache != nil {
		return e.opts.ResultCache, nil
	}
	if e.opts.ResultDir == "" {
		return nil, nil
	}
	rc := NewResultCache()
	if err := rc.AttachDir(e.opts.ResultDir); err != nil {
		return nil, err
	}
	return rc, nil
}

// resolve maps IDs to experiments, defaulting to the whole registry.
func resolve(ids []string) ([]exp.Experiment, error) {
	if len(ids) == 0 {
		return exp.All(), nil
	}
	exps := make([]exp.Experiment, len(ids))
	for i, id := range ids {
		ex, ok := exp.Lookup(id)
		if !ok {
			return nil, &exp.UnknownExperimentError{ID: id}
		}
		exps[i] = ex
	}
	return exps, nil
}

// prewarm renders the batch's declared trace needs, deduplicated, through
// the same worker pool the experiments will use. Errors are ignored here:
// a failing render will fail again, visibly, inside the experiment that
// needs it.
func (e *Engine) prewarm(ctx context.Context, exps []exp.Experiment, cfg exp.Config, sem chan struct{}) {
	seen := map[exp.TraceKey]bool{}
	var keys []exp.TraceKey
	for _, ex := range exps {
		if ex.Needs == nil {
			continue
		}
		for _, k := range ex.Needs(cfg) {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func(k exp.TraceKey) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				return
			}
			_, _ = cfg.Traces.SceneTrace(ctx, k, cfg.EffectiveScale())
		}(k)
	}
	wg.Wait()
}

// runOne executes a single experiment, recording its structured output
// and per-experiment wall time.
func runOne(ctx context.Context, i int, ex exp.Experiment, cfg exp.Config) Result {
	r := Result{Index: i, ID: ex.ID, Title: ex.Title}
	if err := ctx.Err(); err != nil {
		r.Err = err
		return r
	}
	reg := obs.Default()
	reg.Emit("experiment.start", ex.ID, 0)
	rec := &report.Recording{}
	start := time.Now()
	r.Err = ex.Run(ctx, cfg, rec)
	r.Elapsed = time.Since(start)
	r.Report = rec
	r.Output = rec.Text()
	reg.Sub("engine").Timer("experiment").Observe(r.Elapsed)
	reg.Emit("experiment.done", ex.ID, int64(r.Elapsed))
	return r
}
