package texcache_test

// End-to-end contracts of the sharded design-space exploration: a grid
// split across n workers merges back byte-identical to the
// single-process run with every trace rendered exactly once
// machine-wide, and (as a bench-check gate) real coordinated worker
// processes beat one process on a warm trace store.
//
// The in-process tests replicate exactly what texsim does: workers
// stream bare NDJSON rows, and whoever owns the full view — the plain
// run or the merger — tees the stream through a GridCollector and
// appends the frontier.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"texcache"
)

func shardGrid() texcache.RequestGrid {
	return texcache.RequestGrid{
		Scenes: []string{"flight", "town", "guitar"},
		Scales: []int{8},
		Configs: []texcache.RequestCacheConfig{
			{SizeBytes: 2 << 10, LineBytes: 64, Ways: 1},
			{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2},
		},
	}
}

// runGridShard runs one worker's slice of a grid request in-process with
// its own trace cache, returning the NDJSON row stream (no frontier) and
// how many renders the worker performed.
func runGridShard(t testing.TB, grid texcache.RequestGrid, sh *texcache.RequestShard, tc *texcache.TraceCache) ([]byte, int) {
	t.Helper()
	req := texcache.ExperimentRequest{Scale: 8, Workers: 1, Grid: &grid, Shard: sh}
	results, err := texcache.Run(context.Background(), req, texcache.WithTraceProvider(tc))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := texcache.WriteResultsNDJSON(&buf, results, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tc.Renders()
}

// fullView appends the Pareto frontier to a complete grid row stream,
// the way the plain run and the coordinator both do.
func fullView(t testing.TB, rows []byte) []byte {
	t.Helper()
	col := texcache.NewGridCollector()
	if _, err := col.Write(rows); err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), rows...)
	w := bytes.NewBuffer(out)
	if err := col.WriteFrontier(w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// TestShardedGridByteIdentity is the tentpole contract: for n in {1, 2,
// NumCPU}, running the n shard slices independently and merging their
// streams reproduces the unsharded output byte for byte (a non-empty
// frontier included), and the per-worker render counts sum to exactly
// the trace count — each trace rendered once machine-wide, with no
// shared store needed.
func TestShardedGridByteIdentity(t *testing.T) {
	grid := shardGrid()
	traces, err := texcache.GridTraceCount(grid, 8)
	if err != nil {
		t.Fatal(err)
	}
	if traces != 3 {
		t.Fatalf("GridTraceCount = %d, want 3", traces)
	}

	plainRows, renders := runGridShard(t, grid, nil, texcache.NewTraceCache())
	if renders != traces {
		t.Errorf("plain run renders = %d, want %d", renders, traces)
	}
	plain := fullView(t, plainRows)
	if !bytes.Contains(plain, []byte(`"exp":"pareto","type":"row"`)) {
		t.Fatalf("unsharded run has an empty frontier; the byte identity proves nothing about it:\n%s", plain)
	}

	counts := map[int]bool{1: true, 2: true, runtime.NumCPU(): true}
	for n := range counts {
		if n < 1 {
			continue
		}
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			streams := make([]io.Reader, n)
			total := 0
			for i := 0; i < n; i++ {
				rows, r := runGridShard(t, grid, &texcache.RequestShard{Index: i, Count: n},
					texcache.NewTraceCache())
				streams[i] = bytes.NewReader(rows)
				total += r
			}
			if total != traces {
				t.Errorf("sum of worker renders = %d, want %d (each trace exactly once machine-wide)", total, traces)
			}
			var merged bytes.Buffer
			col := texcache.NewGridCollector()
			if err := texcache.MergeGridStreams(io.MultiWriter(&merged, col), streams, traces); err != nil {
				t.Fatal(err)
			}
			if err := col.WriteFrontier(&merged); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(merged.Bytes(), plain) {
				t.Errorf("merged %d-shard output differs from unsharded run:\n--- merged ---\n%s\n--- plain ---\n%s",
					n, merged.Bytes(), plain)
			}
		})
	}
}

// texsimBinary builds cmd/texsim once per test binary for the
// process-level gates.
var texsimBinary struct {
	once sync.Once
	dir  string
	path string
	err  error
}

// TestMain removes the shared texsim build once every test and
// benchmark that might use it has run.
func TestMain(m *testing.M) {
	code := m.Run()
	if texsimBinary.dir != "" {
		os.RemoveAll(texsimBinary.dir)
	}
	os.Exit(code)
}

func buildTexsim(tb testing.TB) string {
	tb.Helper()
	texsimBinary.once.Do(func() {
		// Not tb.TempDir(): the binary must outlive whichever test built
		// it, since later tests and benchmarks share it. TestMain
		// removes it.
		dir, err := os.MkdirTemp("", "texsim-bin-")
		if err != nil {
			texsimBinary.err = err
			return
		}
		texsimBinary.dir = dir
		path := filepath.Join(dir, "texsim")
		out, err := exec.Command("go", "build", "-o", path, "./cmd/texsim").CombinedOutput()
		if err != nil {
			texsimBinary.err = fmt.Errorf("go build ./cmd/texsim: %v\n%s", err, out)
			return
		}
		texsimBinary.path = path
	})
	if texsimBinary.err != nil {
		tb.Fatal(texsimBinary.err)
	}
	return texsimBinary.path
}

// coordinatedRun executes one texsim -coordinate n run over gridFile
// with a shared trace store, returning stdout.
func coordinatedRun(tb testing.TB, bin, gridFile, store string, n int) []byte {
	tb.Helper()
	cmd := exec.Command(bin, "-grid", gridFile, "-coordinate", fmt.Sprint(n),
		"-trace-dir", store, "-workers", "1", "-scale", "8")
	out, err := cmd.Output()
	if err != nil {
		tb.Fatalf("texsim -coordinate %d: %v", n, err)
	}
	return out
}

const scalingGridJSON = `{"scenes":["flight","town","guitar","goblet"],"scales":[8,16],"configs":[
 {"size_bytes":2048,"ways":1,"line_bytes":64},
 {"size_bytes":8192,"ways":2,"line_bytes":64},
 {"size_bytes":16384,"ways":2,"line_bytes":128},
 {"size_bytes":32768,"ways":4,"line_bytes":128}]}`

// writeScalingGrid writes the scaling grid and pre-warms the shared
// store so timing measures replay scheduling, not rendering.
func writeScalingGrid(tb testing.TB, bin string) (gridFile, store string) {
	tb.Helper()
	dir := tb.TempDir()
	gridFile = filepath.Join(dir, "grid.json")
	store = filepath.Join(dir, "traces")
	if err := os.WriteFile(gridFile, []byte(scalingGridJSON), 0o644); err != nil {
		tb.Fatal(err)
	}
	coordinatedRun(tb, bin, gridFile, store, 1)
	return gridFile, store
}

// TestShardScaling is the bench-check gate for the coordinator: on a
// warm trace store, n=NumCPU real worker processes must beat a single
// worker process by at least 1.5x on the same grid. Process-level
// parallelism is the whole point of sharding, so — like the trace-gen
// gate — it needs real cores and skips on a single-CPU host.
func TestShardScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	n := runtime.NumCPU()
	if n < 2 {
		t.Skip("shard scaling needs more than one CPU")
	}
	bin := buildTexsim(t)
	gridFile, store := writeScalingGrid(t, bin)

	var single, sharded []byte
	serial := bestOf3(func() { single = coordinatedRun(t, bin, gridFile, store, 1) })
	parallel := bestOf3(func() { sharded = coordinatedRun(t, bin, gridFile, store, n) })
	if !bytes.Equal(single, sharded) {
		t.Error("sharded output differs from single-worker output")
	}

	speedup := float64(serial) / float64(parallel)
	t.Logf("1 worker %v, %d workers %v: %.2fx", serial, n, parallel, speedup)
	if speedup < 1.5 {
		t.Errorf("coordinated shard speedup %.2fx, want >= 1.5x (serial %v, parallel %v)",
			speedup, serial, parallel)
	}
}

// BenchmarkShardedGrid times coordinated multi-process grid runs over a
// warm trace store — the workers render nothing, so the numbers isolate
// the sharding machinery plus replay. The n=1 case is the
// single-process baseline the scaling claim divides by.
func BenchmarkShardedGrid(b *testing.B) {
	bin := buildTexsim(b)
	gridFile, store := writeScalingGrid(b, bin)
	for _, n := range benchShardCounts() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coordinatedRun(b, bin, gridFile, store, n)
			}
		})
	}
}

// benchShardCounts picks the worker counts BenchmarkShardedGrid
// reports: the serial baseline and the full machine (when they differ).
func benchShardCounts() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}
