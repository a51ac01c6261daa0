// Package engine runs batches of registered experiments concurrently.
// Two levels of sharing make a batch cheaper than the sum of its parts:
// a keyed single-flight trace cache renders each (scene, layout,
// traversal) stream once for every experiment that needs it, and the
// cache layer's concurrent replay lets one pass over a trace feed a
// whole sweep of cache configurations. Every request kind becomes a list
// of jobs that one scheduler runs; results stream back on a channel as
// jobs finish, tagged with their position in the request so callers can
// re-serialize deterministic output.
package engine

import (
	"context"
	"runtime"
	"sync"
	"time"

	"texcache/internal/exp"
	"texcache/internal/obs"
	"texcache/internal/report"
)

// Result is one finished job: an experiment of a batch, a sweep, an
// architecture comparison or one trace group of a grid. Index is the
// job's position in the request (an experiment's in the requested ID
// list), so a consumer that wants the serial order can reorder the
// stream by Index.
type Result struct {
	Index   int
	ID      string
	Title   string
	Output  string // the text rendering of everything the job emitted
	Err     error  // non-nil if the job failed or was cancelled
	Elapsed time.Duration
	// Report is the recorded structured output, replayable into any
	// report.Reporter (e.g. report.JSON for machine-readable batches).
	// Nil when the job was skipped before running.
	Report *report.Recording
}

// Progress describes one completed (or skipped) job within a running
// request, for live progress display.
type Progress struct {
	// Completed counts jobs finished so far, including this one; Total
	// is the request's job count.
	Completed, Total int
	// ID names the job that just finished (its Result.ID).
	ID string
	// Elapsed is its wall time (zero when skipped before running).
	Elapsed time.Duration
	// Err is the job's error, nil on success.
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
	// Progress, when non-nil, is called once per finished job of every
	// request kind. Calls are serialized and Completed is monotonic, but
	// they arrive in completion order, not request order. The callback
	// runs on an engine goroutine and must not block on the result
	// channel.
	Progress func(Progress)
	// Traces, when non-nil, is the trace provider installed on every
	// batch whose Config does not bring its own — the hook through which
	// a long-running server shares one TraceCache (and its coalesced
	// renders) across many engines, and through which a caller attaches
	// a persistent trace store (TraceCache.Store). RenderWorkers is
	// ignored when it is set.
	Traces exp.TraceProvider
	// ResultCache, when non-nil, is the finished-stream memoization tier
	// RunRequestNDJSON consults before running anything — the hook
	// through which a long-running server serves repeated requests as
	// stored bytes, and through which a caller attaches a persistent
	// result store (ResultCache.AttachDir). Shared caches coalesce
	// identical concurrent requests onto one simulation. Nil means no
	// result caching.
	ResultCache *ResultCache
}

// Option mutates Options.
type Option func(*Options)

// WithWorkers bounds the number of concurrently running experiments.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithRenderWorkers sets the tile-parallel rasterization worker count
// used by the engine's trace cache (0 = GOMAXPROCS, 1 = serial).
func WithRenderWorkers(n int) Option { return func(o *Options) { o.RenderWorkers = n } }

// WithProgress installs a per-job completion callback.
func WithProgress(fn func(Progress)) Option { return func(o *Options) { o.Progress = fn } }

// WithResultCache installs a shared result cache on the engine: every
// RunRequestNDJSON call checks it before simulating, so
// repeated requests are served as stored bytes and identical concurrent
// requests coalesce onto one run.
func WithResultCache(rc *ResultCache) Option {
	return func(o *Options) { o.ResultCache = rc }
}

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
		cfg.Traces = e.traces()
	}
	jobs := make([]job, len(exps))
	for i, ex := range exps {
		jobs[i] = job{id: ex.ID, title: ex.Title, timer: "experiment",
			run: func(ctx context.Context, rep report.Reporter) error { return ex.Run(ctx, cfg, rep) }}
	}
	return e.runJobs(ctx, jobs, func(sem chan struct{}) { e.prewarm(ctx, exps, cfg, sem) }), nil
}

// job is one unit of scheduled work: an experiment of a batch, a sweep,
// an architecture comparison, or one trace group of a grid. Its Result
// carries id and title, and its wall time is recorded in the engine
// timer named by timer.
type job struct {
	id, title string
	timer     string
	run       func(ctx context.Context, rep report.Reporter) error
}

// runJobs runs jobs on a semaphore of Workers slots and streams one
// Result per job, indexed by its position in jobs, as each finishes; the
// channel is closed after the last. warm, when non-nil, runs first on
// the same semaphore. A job still queued when ctx ends is skipped with
// ctx.Err(). Every job, whatever its kind, moves the queue_depth and
// busy_workers gauges, counts in engine.experiments and reaches the
// Progress callback.
func (e *Engine) runJobs(ctx context.Context, jobs []job, warm func(sem chan struct{})) <-chan Result {
	out := make(chan Result, len(jobs))
	sem := make(chan struct{}, e.opts.Workers)

	// All handles are nil when no registry is attached, making every
	// update a no-op.
	reg := obs.Default().Sub("engine")
	queued := reg.Gauge("queue_depth")
	busy := reg.Gauge("busy_workers")
	finished := reg.Counter("experiments")

	// finish serializes the completion callback, keeping Completed
	// monotonic across concurrently finishing jobs.
	var progressMu sync.Mutex
	completed := 0
	finish := func(r Result) {
		finished.Inc()
		if e.opts.Progress != nil {
			progressMu.Lock()
			completed++
			e.opts.Progress(Progress{
				Completed: completed, Total: len(jobs),
				ID: r.ID, Elapsed: r.Elapsed, Err: r.Err,
			})
			progressMu.Unlock()
		}
		out <- r
	}

	go func() {
		defer close(out)
		if warm != nil {
			warm(sem)
		}
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := Result{Index: i, ID: j.id, Title: j.title}
				queued.Add(1)
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					queued.Add(-1)
					r.Err = ctx.Err()
					finish(r)
					return
				}
				queued.Add(-1)
				busy.Add(1)
				if r.Err = ctx.Err(); r.Err == nil {
					rec := &report.Recording{}
					start := time.Now()
					r.Err = j.run(ctx, rec)
					r.Elapsed = time.Since(start)
					r.Report = rec
					r.Output = rec.Text()
					reg.Timer(j.timer).Observe(r.Elapsed)
				}
				busy.Add(-1)
				<-sem
				finish(r)
			}()
		}
		wg.Wait()
	}()
	return out
}

// traces resolves the trace provider a batch uses when its Config does
// not bring one: the engine's shared provider when installed, otherwise
// a fresh memory-only single-flight TraceCache.
func (e *Engine) traces() exp.TraceProvider {
	if e.opts.Traces != nil {
		return e.opts.Traces
	}
	tc := NewTraceCache()
	tc.RenderWorkers = e.opts.RenderWorkers
	return tc
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
