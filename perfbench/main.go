// Command perfbench is the repository's benchmark: it runs one named
// workload against the real texsim and texserve binaries, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced in-process run of the same requests).
//
// Usage, from the repository root (perfbench/run.sh builds the binaries
// and this command, then runs it):
//
//	bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 212, "failed": 0, "metrics": {"latency_p50_ms": {"value": 81.2, "unit": "ms"}, ...}}
//
// See perfbench/README.md for the workloads, the metrics and the layer
// each one belongs to.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is what every workload runs against.
type env struct {
	root    string // repository root: goldens and the built binaries live under it
	bin     string // directory holding the texsim and texserve binaries
	work    string // scratch directory for stores and spans, removed at exit
	seconds time.Duration
	seed    int64
	clients int // closed-loop clients, one per CPU
}

// outcome is an untraced measurement of one workload.
type outcome struct {
	metrics map[string]metric // the end-to-end metrics
	extra   map[string]metric // printed, not part of the result object
	// attempted counts requests (experiments for paper-batch); failed
	// those that errored or were refused, wrong those whose bytes differ
	// from the reference.
	attempted, failed, wrong int
}

// workload is one named traffic mix.
type workload struct {
	name, why string
	run       func(context.Context, *env, *gen) (*outcome, error)
}

var workloads = []workload{
	{"paper-batch", whyPaperBatch, runBatch},
	{"cold-sweep", whyColdSweep, runServer},
	{"trace-warm-sweep", whyTraceWarm, runServer},
	{"hot-repeat", whyHotRepeat, runServer},
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: paper-batch, cold-sweep, trace-warm-sweep or hot-repeat")
	seed := flag.Int64("seed", 1, "seed the workload's requests are generated from")
	seconds := flag.Int("seconds", 15, "timed work: one block of about a second's requests per second (paper-batch: one texsim run per four)")
	trace := flag.Int("trace", 0, "1 runs the traced in-process pass and prints per-layer metrics")
	root := flag.String("root", ".", "repository root")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the texsim and texserve binaries")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of paper-batch, cold-sweep, trace-warm-sweep, hot-repeat), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	g, err := newGen(w.name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{
		root: *root, bin: *bin, work: work,
		seconds: time.Duration(*seconds) * time.Second,
		seed:    *seed, clients: runtime.NumCPU(),
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	host := hostFacts(*seed)
	fmt.Printf("perfbench: workload %s (%s)\n", w.name, w.why)
	o, err := w.run(ctx, e, g)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	bad := o.failed + o.wrong
	o.extra["fail_share"] = metric{share(float64(bad), float64(o.attempted)), "share"}
	o.extra["wrong_outputs"] = metric{float64(o.wrong), "count"}
	out := o.metrics
	if *trace == 1 {
		layers, err := traced(ctx, e, w.name, g, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced run: %v\n", w.name, err)
			return 1
		}
		bad += layers.wrong
		out = layers.metrics
		if err := writeSpans(e, w.name, layers.rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	printTable("end-to-end (untraced)", o.metrics)
	printTable("also reported", o.extra)
	if *trace == 1 {
		printTable("per-layer (traced run)", out)
	}
	hb, _ := json.Marshal(host)
	fmt.Printf("host: %s\n", hb)
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{bad == 0, o.attempted, bad, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Println(string(res))
	return 0
}

// printTable prints metrics one a line, sorted by name.
func printTable(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s:\n", title)
	for _, n := range names {
		fmt.Printf("  %-44s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// writeSpans writes the traced run's spans to
// .bench_build/spans/<workload>-seed<n>.ndjson.
func writeSpans(e *env, name string, rec *recorder) error {
	dir := filepath.Join(e.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.ndjson", name, e.seed)))
	if err != nil {
		return err
	}
	if err := rec.writeTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
