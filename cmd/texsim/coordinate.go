// The -coordinate mode: fan a design-space grid out over n real texsim
// worker processes and merge their NDJSON streams back into the
// canonical unsharded order.
//
// Each worker runs `texsim -grid <file> -shard i/n` over the same grid
// file with every axis-affecting flag forwarded, so the n slices
// enumerate identically and partition the trace groups exactly. All
// workers share one content-addressed trace store (-trace-dir, a temp
// directory when the caller didn't name one): shard assignment is
// trace-affine, so each distinct trace is rendered by exactly one
// worker machine-wide, and a re-run against a warm store renders
// nothing at all. The coordinator k-way merges the worker streams by
// their trace-group tags and appends the Pareto frontier computed from
// the merged rows — byte-identical to a plain single-process
// `texsim -grid` run.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"

	"texcache"
)

// coordinate spawns f.coordinate worker processes over the validated
// grid request and merges their output onto stdout. Returns the process
// exit code.
func coordinate(ctx context.Context, f flags, req texcache.ExperimentRequest, traceDir string) int {
	n := f.coordinate

	tmp, err := os.MkdirTemp("", "texsim-coordinate-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)

	// Workers parse the same grid the coordinator validated; stdin grids
	// are materialized so every worker can read them.
	gridPath := filepath.Join(tmp, "grid.json")
	gridJSON, err := json.Marshal(req.Grid)
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(gridPath, gridJSON, 0o644); err != nil {
		return fail(err)
	}

	// The shared content-addressed store is what makes each trace render
	// exactly once machine-wide. A caller-named -trace-dir persists it
	// across runs; otherwise it lives and dies with the coordination.
	td := traceDir
	if td == "" {
		td = filepath.Join(tmp, "traces")
	}

	// Unless the caller pinned -workers, split the machine between the
	// worker processes instead of letting each assume it owns every CPU.
	workers := f.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0) / n
		if workers < 1 {
			workers = 1
		}
	}

	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	// Workers run under a child context so a failed merge can stop the
	// ones still running: once the merge stops reading, a worker with
	// more rows to write blocks on its full pipe and never exits.
	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	cmds := make([]*exec.Cmd, n)
	streams := make([]io.Reader, n)
	for i := 0; i < n; i++ {
		args := []string{
			"-grid", gridPath,
			"-shard", fmt.Sprintf("%d/%d", i, n),
			"-scale", strconv.Itoa(req.Scale),
			"-trace-dir", td,
			"-workers", strconv.Itoa(workers),
		}
		if f.renderW != 0 {
			args = append(args, "-render-workers", strconv.Itoa(f.renderW))
		}
		cmd := exec.CommandContext(wctx, exe, args...)
		dieWithParent(cmd)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return fail(err)
		}
		cmds[i] = cmd
		streams[i] = pipe
	}
	for i, cmd := range cmds {
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:i] {
				c.Process.Kill()
				c.Wait()
			}
			return fail(err)
		}
	}

	traces, err := texcache.GridTraceCount(*req.Grid, req.Scale)
	if err != nil {
		return fail(err)
	}
	bw := bufio.NewWriter(os.Stdout)
	col := texcache.NewGridCollector()
	mergeErr := texcache.MergeGridStreams(io.MultiWriter(bw, col), streams, traces)
	if mergeErr != nil {
		stopWorkers()
	}

	var waitErr error
	for i, cmd := range cmds {
		err := cmd.Wait()
		if mergeErr != nil && stoppedByCoordinator(err) {
			continue
		}
		if err != nil && waitErr == nil {
			waitErr = fmt.Errorf("worker %d/%d: %w", i, n, err)
		}
	}
	switch {
	case ctx.Err() != nil:
		bw.Flush()
		return fail(ctx.Err())
	case waitErr != nil:
		bw.Flush()
		return fail(waitErr)
	case mergeErr != nil:
		bw.Flush()
		return fail(mergeErr)
	}
	if err := col.WriteFrontier(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	return 0
}

// stoppedByCoordinator reports whether a worker's Wait error is the
// coordinator's own stop rather than a failure of the worker: a death by
// signal, or the cancellation exec reports when the stop reached a
// worker that had already exited.
func stoppedByCoordinator(err error) bool {
	var ee *exec.ExitError
	return errors.Is(err, context.Canceled) || errors.As(err, &ee) && ee.ExitCode() == -1
}
