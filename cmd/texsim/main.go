// Command texsim regenerates the paper's tables and figures from fresh
// simulations of the four benchmark scenes.
//
// Every invocation builds one texcache.ExperimentRequest — the same
// versioned struct the texserve server accepts over HTTP — validates it
// through the shared request validator, and runs it through the engine.
// Experiments run concurrently: each needed (scene, layout, traversal)
// trace is rendered exactly once across the batch, and
// multi-configuration sweeps replay each trace in a single pass. Output
// is re-serialized into the requested order, so it is byte-for-byte the
// serial output regardless of -workers.
//
// Usage:
//
//	texsim -list
//	texsim -exp fig5.2 -scale 2
//	texsim -exp all -scale 4 -scenes town,guitar -workers 8
//	texsim -exp fig6.2 -render-workers 4      # tile-parallel rendering
//	texsim -exp table7.1 -json            # NDJSON rows on stdout
//	texsim -exp all -metrics :8080        # expvar + pprof while running
//	texsim -exp all -cpuprofile cpu.out -memprofile mem.out
//	texsim -exp all -trace-dir .traces    # persist renders across runs
//	texsim -request sweep.json -json      # run a wire-form request file
//	texsim -arch both -scenes goblet -scale 4   # cycle-level pipelines
//
// -arch compares the cycle-level texture-unit architectures (the Igehy
// et al. 1998 prefetching pipeline and/or the blocking baseline) over a
// single scene named by -scenes, instead of running registered
// experiments; -arch-fifo and -arch-latency override the paper-default
// fragment FIFO depth and memory fill latency (0 keeps the defaults).
//
// -request reads a JSON texcache.ExperimentRequest from the given file
// ("-" for stdin) — the exact body texserve accepts — so any request a
// client would POST can be reproduced locally; the output is
// byte-identical to the server's NDJSON stream for the same request.
// The experiment-selection flags (-exp, -scenes, -scale, -workers,
// -render-workers) are rejected alongside -request: the file is the
// whole request.
//
// -grid runs a design-space cross-product from a JSON file ("-" for
// stdin) naming scene/scale/layout/traversal/config axes; output is
// always NDJSON — one row per (trace, config) unit with its classified
// misses and hardware cost, then the Pareto frontier of miss rate
// against cost ("exp":"pareto" lines). Each trace is replayed once:
// the configurations of a line size come from one grouped walk, or a
// lone one from its own cache.
// -coordinate n fans the grid out over n worker processes sharing one
// trace store and merges their streams byte-identically to the
// single-process run; -shard i/n runs one worker's deterministic slice
// alone, emitting rows only.
//
//	texsim -grid grid.json                      # whole grid, one process
//	texsim -grid grid.json -coordinate 4 -trace-dir .traces
//	texsim -grid grid.json -shard 0/4 -trace-dir .traces
//
// -trace-dir keeps every rendered texel trace in a content-addressed,
// checksummed store under the given directory (created if needed): a
// second run with the same flags loads the stored traces and skips
// rendering entirely. Entries are keyed by scene, scale, layout,
// traversal and trace-format version, so stale or corrupted files are
// simply regenerated; output is byte-identical with or without the
// store. texsim opens the store itself, as texserve does, and renders
// through a trace cache on it with the request's render workers, so a
// -request file's render_workers applies with or without the store.
//
// -result-dir adds the tier above that for -json and -grid runs: the
// finished NDJSON stream itself is stored content-addressed (keyed by
// the canonical request, the API, trace-codec and result-format
// versions, and the build of texsim), so repeating the same request
// replays stored bytes in microseconds instead of re-simulating —
// byte-identical output either way. texsim attaches the directory to a
// result cache of its own; text tables never consult it. A grid's
// frontier is recomputed from the rows, stored or fresh.
//
//	texsim -exp all -json -result-dir .results  # warm repeats are instant
//
// -coordinate rejects -result-dir as a usage error: the coordinator
// would neither store nor serve its merged stream.
//
// Sweeps run in one pass per line size: LRU configurations sharing a
// line size are answered from one walk of the trace, and one alone at
// its line size from its own cache. -cpuprofile and -memprofile write
// runtime/pprof profiles covering the whole run.
//
// -json emits each experiment's tables as newline-delimited JSON objects
// (one per row/note, each stamped with its experiment ID) instead of the
// fixed-width text. -metrics serves /debug/vars and /debug/pprof on the
// given address for the duration of the run; pass :0 to pick a free
// port, printed on stderr. A summary of the run's metrics (experiments,
// renders, replayed addresses, timings) is printed to stderr at exit.
//
// Invalid requests (bad scale, unknown experiment or scene, malformed
// request file) exit 2 before any work starts. SIGINT / SIGTERM cancel
// the batch; experiments stop between frames.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"texcache"
)

func main() {
	os.Exit(run())
}

// flags bundles the command line for request building and testing.
type flags struct {
	id          string
	scale       int
	scenes      string
	workers     int
	renderW     int
	requestFile string
	arch        string
	archFIFO    int
	archLatency int
	gridFile    string
	shard       string
	coordinate  int
	resultDir   string
}

// parseShard parses the -shard i/n worker-slice syntax. Range errors
// (i >= n, n < 1) are left to the shared request validator so the CLI
// and the server reject them identically.
func parseShard(s string) (texcache.RequestShard, error) {
	iStr, nStr, ok := strings.Cut(s, "/")
	if !ok {
		return texcache.RequestShard{}, fmt.Errorf("-shard %q: want i/n (e.g. 0/4)", s)
	}
	i, err := strconv.Atoi(iStr)
	if err != nil {
		return texcache.RequestShard{}, fmt.Errorf("-shard %q: bad index: %v", s, err)
	}
	n, err := strconv.Atoi(nStr)
	if err != nil {
		return texcache.RequestShard{}, fmt.Errorf("-shard %q: bad count: %v", s, err)
	}
	return texcache.RequestShard{Index: i, Count: n}, nil
}

// buildRequest maps the experiment-selection flags onto the shared
// request struct, or loads the wire form from -request. The returned
// request is exactly what texcache.Run (and texserve) consume; all
// validation happens in the shared api validator, not here.
func buildRequest(f flags, stdin io.Reader) (texcache.ExperimentRequest, error) {
	if f.gridFile == "" {
		switch {
		case f.shard != "":
			return texcache.ExperimentRequest{}, errors.New("-shard needs a -grid to slice")
		case f.coordinate != 0:
			return texcache.ExperimentRequest{}, errors.New("-coordinate needs a -grid to fan out")
		}
	}
	if f.gridFile != "" {
		if f.id != "" || f.arch != "" || f.requestFile != "" || f.scenes != "" {
			return texcache.ExperimentRequest{}, errors.New("-grid replaces -exp/-scenes/-arch/-request; the grid file names its own axes")
		}
		if f.coordinate < 0 {
			return texcache.ExperimentRequest{}, fmt.Errorf("-coordinate %d: worker count must be >= 1", f.coordinate)
		}
		if f.coordinate != 0 && f.resultDir != "" {
			return texcache.ExperimentRequest{}, errors.New("-result-dir does not apply to -coordinate: the coordinator neither stores nor serves its merged stream; drop one of them")
		}
		r := stdin
		if f.gridFile != "-" {
			file, err := os.Open(f.gridFile)
			if err != nil {
				return texcache.ExperimentRequest{}, err
			}
			defer file.Close()
			r = file
		}
		var grid texcache.RequestGrid
		if err := json.NewDecoder(r).Decode(&grid); err != nil {
			return texcache.ExperimentRequest{}, fmt.Errorf("parsing %s: %w", f.gridFile, err)
		}
		req := texcache.ExperimentRequest{
			Scale:         f.scale,
			Workers:       f.workers,
			RenderWorkers: f.renderW,
			Grid:          &grid,
		}
		if f.shard != "" {
			if f.coordinate != 0 {
				return texcache.ExperimentRequest{}, errors.New("-shard and -coordinate are mutually exclusive: the coordinator assigns shards itself")
			}
			sl, err := parseShard(f.shard)
			if err != nil {
				return texcache.ExperimentRequest{}, err
			}
			req.Shard = &sl
		}
		return req, nil
	}
	if f.requestFile != "" {
		if f.id != "" || f.scenes != "" || f.arch != "" {
			return texcache.ExperimentRequest{}, errors.New("-request replaces -exp/-scenes/-arch; drop them")
		}
		r := stdin
		if f.requestFile != "-" {
			file, err := os.Open(f.requestFile)
			if err != nil {
				return texcache.ExperimentRequest{}, err
			}
			defer file.Close()
			r = file
		}
		var req texcache.ExperimentRequest
		dec := json.NewDecoder(r)
		if err := dec.Decode(&req); err != nil {
			return texcache.ExperimentRequest{}, fmt.Errorf("parsing %s: %w", f.requestFile, err)
		}
		return req, nil
	}
	req := texcache.ExperimentRequest{
		Scale:         f.scale,
		Workers:       f.workers,
		RenderWorkers: f.renderW,
	}
	if f.arch != "" {
		if f.id != "" {
			return texcache.ExperimentRequest{}, errors.New("-arch replaces -exp; drop one")
		}
		if strings.Contains(f.scenes, ",") {
			return texcache.ExperimentRequest{}, errors.New("-arch compares pipelines over one scene; give -scenes a single name")
		}
		req.Scene = f.scenes
		req.Architecture = &texcache.RequestArchitecture{
			Pipeline:     f.arch,
			FragmentFIFO: f.archFIFO,
			FillLatency:  f.archLatency,
		}
		return req, nil
	}
	if f.id != "all" {
		req.Experiments = strings.Split(f.id, ",")
	}
	if f.scenes != "" {
		req.Scenes = strings.Split(f.scenes, ",")
	}
	return req, nil
}

func run() int {
	var f flags
	flag.StringVar(&f.id, "exp", "", "experiment ID, comma-separated list, or 'all'")
	flag.IntVar(&f.scale, "scale", 2, "resolution divisor (1 = the paper's full size)")
	list := flag.Bool("list", false, "list available experiments")
	flag.StringVar(&f.scenes, "scenes", "", "comma-separated scene subset (default: each experiment's own)")
	flag.IntVar(&f.workers, "workers", 0, "concurrent experiments (0 = GOMAXPROCS)")
	flag.IntVar(&f.renderW, "render-workers", 0, "tile-parallel rasterization workers per render (0 = GOMAXPROCS, 1 = serial; traces are bit-identical at any setting)")
	jsonOut := flag.Bool("json", false, "emit NDJSON rows on stdout instead of text tables")
	metrics := flag.String("metrics", "", "serve /debug/vars and /debug/pprof on this address (e.g. :8080, :0)")
	progress := flag.Bool("progress", false, "print a completion line on stderr per experiment, sweep, architecture comparison or grid trace group")
	flag.StringVar(&f.requestFile, "request", "", "run a JSON ExperimentRequest from this file ('-' = stdin), the texserve wire form")
	flag.StringVar(&f.arch, "arch", "", "compare cycle-level texture-unit pipelines (blocking, prefetch or both) over the single -scenes scene")
	flag.IntVar(&f.archFIFO, "arch-fifo", 0, "fragment FIFO depth in fragments for -arch (0 = the paper's 64)")
	flag.IntVar(&f.archLatency, "arch-latency", 0, "memory fill latency in cycles for -arch (0 = the paper's 100)")
	flag.StringVar(&f.gridFile, "grid", "", "run a design-space grid from this JSON file ('-' = stdin): axes scenes/scales/layouts/traversals/configs, output is NDJSON rows plus a Pareto frontier")
	flag.StringVar(&f.shard, "shard", "", "run only this worker slice of the -grid, as i/n (e.g. 2/8); rows only, no frontier")
	flag.IntVar(&f.coordinate, "coordinate", 0, "spawn this many texsim worker processes over the -grid, sharing one trace store, and merge their streams into the canonical order")
	traceDir := flag.String("trace-dir", "", "persist rendered traces in this directory and reuse them across runs (output is identical)")
	flag.StringVar(&f.resultDir, "result-dir", "", "persist finished -json and -grid result streams in this directory and serve repeat runs from it without re-simulating (output is byte-identical; not with -coordinate)")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	// Grid-only flags without -grid are not "no work": fall through so
	// buildRequest can say which flag needs the -grid.
	noWork := f.id == "" && f.requestFile == "" && f.arch == "" && f.gridFile == "" &&
		f.shard == "" && f.coordinate == 0
	if *list || noWork {
		fmt.Println("experiments:")
		for _, eid := range texcache.ExperimentIDs() {
			fmt.Printf("  %s\n", eid)
		}
		if noWork && !*list {
			return 2
		}
		return 0
	}

	req, err := buildRequest(f, os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "texsim:", err)
		return 2
	}
	// One shared validation path with texserve and the library: an
	// invalid request exits 2 here exactly as it would 400 there.
	if err := texcache.ValidateRequest(texcache.NormalizeRequest(req)); err != nil {
		fmt.Fprintln(os.Stderr, "texsim:", err)
		return 2
	}

	if f.coordinate > 0 {
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		return coordinate(ctx, f, texcache.NormalizeRequest(req), *traceDir)
	}

	if *cpuProf != "" {
		file, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		defer file.Close()
		if err := pprof.StartCPUProfile(file); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			file, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "texsim:", err)
				return
			}
			defer file.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(file); err != nil {
				fmt.Fprintln(os.Stderr, "texsim:", err)
			}
		}()
	}

	// The CLI always collects metrics (the library itself stays no-op
	// unless attached); -metrics additionally serves them live.
	reg := texcache.NewMetricsRegistry()
	texcache.AttachMetrics(reg)
	defer texcache.DetachMetrics()
	if *metrics != "" {
		texcache.PublishMetricsExpvar("texcache", reg)
		srv, ln, err := texcache.ServeMetrics(*metrics)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "texsim: metrics at http://%s/debug/vars\n", ln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ndjson := req.Grid != nil || *jsonOut
	resultDir := f.resultDir
	if !ndjson {
		// The result cache stores finished NDJSON streams, so text
		// tables always simulate.
		resultDir = ""
	}
	opts, err := storeOptions(*traceDir, resultDir, req.RenderWorkers)
	if err != nil {
		return fail(err)
	}
	if *progress {
		opts = append(opts, texcache.WithProgress(func(p texcache.ExperimentProgress) {
			status := "ok"
			if p.Err != nil {
				status = p.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "texsim: [%d/%d] %s %v (%s)\n",
				p.Completed, p.Total, p.ID, p.Elapsed.Round(time.Millisecond), status)
		}))
	}

	start := time.Now()
	if ndjson {
		// Pure NDJSON on stdout, the exact bytes texserve streams for
		// this request, served through the result cache when -result-dir
		// is set: a warm repeat writes the stored stream without
		// simulating. Failures go to stderr only. A full (unsharded)
		// grid run owns the whole view, so it tees the stream through a
		// collector and appends the Pareto frontier; a -shard worker
		// emits rows only — the coordinator appends the frontier after
		// its merge, from the same collector logic, which keeps the
		// bytes identical.
		var out io.Writer = os.Stdout
		var col *texcache.GridCollector
		if req.Grid != nil && req.Shard == nil {
			col = texcache.NewGridCollector()
			out = io.MultiWriter(os.Stdout, col)
		}
		firstErr := texcache.RunNDJSON(ctx, req, out, func(r texcache.ExperimentResult) {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "texsim: %s: %v\n", r.ID, r.Err)
			}
		}, opts...)
		if col != nil && firstErr == nil {
			firstErr = col.WriteFrontier(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "texsim: summary: %s\n", reg.SummaryLine())
		if firstErr != nil {
			return fail(firstErr)
		}
		return 0
	}

	results, err := texcache.Run(ctx, req, opts...)
	if err != nil {
		return fail(err)
	}

	var firstErr error
	// Results arrive in completion order; buffer and print in request
	// order so the output is deterministic.
	done := 0
	flush := func(r texcache.ExperimentResult) {
		done++
		fmt.Printf("=== %s: %s (scale %d) ===\n", r.ID, r.Title, texcache.NormalizeRequest(req).Scale)
		os.Stdout.WriteString(r.Output)
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "texsim: %s: %v\n", r.ID, r.Err)
			if firstErr == nil {
				firstErr = r.Err
			}
			return
		}
		fmt.Printf("--- %s done in %v ---\n\n", r.ID, r.Elapsed.Round(time.Millisecond))
	}
	pending := map[int]texcache.ExperimentResult{}
	next := 0
	for r := range results {
		pending[r.Index] = r
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			flush(r)
		}
	}
	fmt.Fprintf(os.Stderr, "texsim: summary: %s\n", reg.SummaryLine())
	if firstErr != nil {
		return fail(firstErr)
	}
	fmt.Printf("=== %d experiments in %v ===\n", done, time.Since(start).Round(time.Millisecond))
	return 0
}

// storeOptions opens the persistent tiers texsim was pointed at, as
// texserve does: a result cache on resultDir, and a trace cache on the
// traceDir store whose renders use renderWorkers, the request's own
// count. An empty directory attaches nothing.
func storeOptions(traceDir, resultDir string, renderWorkers int) ([]texcache.ExperimentOption, error) {
	var opts []texcache.ExperimentOption
	if resultDir != "" {
		rc := texcache.NewResultCache()
		if err := rc.AttachDir(resultDir); err != nil {
			return nil, err
		}
		opts = append(opts, texcache.WithResultCache(rc))
	}
	if traceDir != "" {
		store, err := texcache.OpenTraceStore(traceDir)
		if err != nil {
			return nil, err
		}
		tc := texcache.NewTraceCache()
		tc.RenderWorkers = renderWorkers
		tc.Store = store
		opts = append(opts, texcache.WithTraceProvider(tc))
	}
	return opts, nil
}

// fail prints err in the friendliest applicable form and returns the
// process exit code.
func fail(err error) int {
	var (
		ce *texcache.ConfigError
		ue *texcache.UnknownExperimentError
		se *texcache.UnknownSceneError
		re *texcache.RequestError
	)
	switch {
	case errors.As(err, &ce):
		fmt.Fprintf(os.Stderr, "texsim: bad cache configuration: %s\n", ce.Reason)
		fmt.Fprintf(os.Stderr, "  (size=%dB line=%dB ways=%d)\n",
			ce.Config.SizeBytes, ce.Config.LineBytes, ce.Config.Ways)
		return 1
	case errors.As(err, &ue):
		fmt.Fprintf(os.Stderr, "texsim: unknown experiment %q; try -list\n", ue.ID)
		return 2
	case errors.As(err, &se):
		fmt.Fprintf(os.Stderr, "texsim: unknown scene %q (want flight, town, guitar or goblet)\n", se.Name)
		return 2
	case errors.As(err, &re):
		fmt.Fprintf(os.Stderr, "texsim: invalid request: %v\n", re)
		return 2
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "texsim: interrupted")
		return 1
	default:
		fmt.Fprintln(os.Stderr, "texsim:", err)
		return 1
	}
}
