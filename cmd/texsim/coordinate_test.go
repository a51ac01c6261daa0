//go:build unix

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"texcache"
)

// fakeWorkerEnv names a directory when the test binary is re-executed as
// a coordinator worker: TestMain then runs fakeWorker instead of the
// tests.
const fakeWorkerEnv = "TEXSIM_TEST_FAKE_WORKER_DIR"

func TestMain(m *testing.M) {
	if dir := os.Getenv(fakeWorkerEnv); dir != "" {
		os.Exit(fakeWorker(dir, os.Args[1:]))
	}
	os.Exit(m.Run())
}

// fakeWorker stands in for a `texsim -grid … -shard i/n` worker. It
// records its pid in dir. Shard 0 then exits at once without a row, or,
// when dir holds a file named "hang", waits to be killed. Every other
// shard writes far more than a pipe buffer holds of lines the merge
// rejects, so it blocks once the coordinator stops reading.
func fakeWorker(dir string, args []string) int {
	shard := ""
	for i, a := range args {
		if a == "-shard" && i+1 < len(args) {
			shard = args[i+1]
		}
	}
	tmp := filepath.Join(dir, "tmp-"+strconv.Itoa(os.Getpid()))
	if err := os.WriteFile(tmp, []byte(strconv.Itoa(os.Getpid())), 0o644); err != nil {
		return 3
	}
	if err := os.Rename(tmp, filepath.Join(dir, "pid-"+strings.ReplaceAll(shard, "/", "-"))); err != nil {
		return 3
	}
	if strings.HasPrefix(shard, "0/") {
		if _, err := os.Stat(filepath.Join(dir, "hang")); err == nil {
			select {}
		}
		return 0
	}
	w := bufio.NewWriter(os.Stdout)
	line := `{"exp":"not-a-trace-tag"}` + "\n"
	for written := 0; written < 1<<20; written += len(line) {
		w.WriteString(line)
	}
	w.Flush()
	return 0
}

// workerPids reads the pids the fake workers recorded.
func workerPids(t *testing.T, dir string) []int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "pid-*"))
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		pid, err := strconv.Atoi(string(b))
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
	}
	return pids
}

// coordinateFakes runs a two-worker coordination over fake workers that
// record their pids in dir, calling during (when non-nil) once the run
// has started. It returns the exit code and what the coordinator
// reported on stderr, then checks that no worker outlived the run.
func coordinateFakes(t *testing.T, ctx context.Context, dir string, during func()) (int, string) {
	t.Setenv(fakeWorkerEnv, dir)
	const grid = `{"scenes":["flight","town"],"configs":[{"size_bytes":2048,"ways":1,"line_bytes":64}]}`
	f := flags{gridFile: "-", coordinate: 2, scale: 8}
	req, err := buildRequest(f, strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	var report bytes.Buffer
	copied := make(chan struct{})
	go func() {
		io.Copy(&report, r)
		close(copied)
	}()

	done := make(chan int, 1)
	go func() {
		done <- coordinate(ctx, f, texcache.NormalizeRequest(req), filepath.Join(dir, "traces"))
	}()
	if during != nil {
		during()
	}
	var code int
	select {
	case code = <-done:
	case <-time.After(30 * time.Second):
		for _, pid := range workerPids(t, dir) {
			syscall.Kill(pid, syscall.SIGKILL) // unblock the hung run
		}
		code = <-done
		t.Error("coordinate did not return")
	}
	os.Stderr = stderr
	w.Close()
	<-copied

	pids := workerPids(t, dir)
	if len(pids) != 2 {
		t.Fatalf("%d workers recorded a pid, want 2", len(pids))
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("worker pid %d still exists after coordinate returned (kill 0: %v)", pid, err)
		}
	}
	return code, report.String()
}

// TestCoordinateStopsWorkersWhenMergeFails: when one worker dies and the
// merge fails, the coordinator must stop the other worker, which is
// blocked writing to a pipe nobody reads, and report the merge error,
// not the kill it sent its own worker.
func TestCoordinateStopsWorkersWhenMergeFails(t *testing.T) {
	code, msg := coordinateFakes(t, context.Background(), t.TempDir(), nil)
	if code == 0 {
		t.Error("coordinate exited 0 over a failed merge")
	}
	if !strings.Contains(msg, "malformed trace tag") {
		t.Errorf("coordinate reported %q, want the merge error", msg)
	}
}

// TestCoordinateInterrupted: cancelling the run while both workers are
// alive kills them, and the coordinator reports the interruption rather
// than the merge error or the kills that follow from it.
func TestCoordinateInterrupted(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "hang"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	code, msg := coordinateFakes(t, ctx, dir, func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if pids, _ := filepath.Glob(filepath.Join(dir, "pid-*")); len(pids) == 2 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		cancel()
	})
	if code == 0 {
		t.Error("interrupted coordinate exited 0")
	}
	if !strings.Contains(msg, "interrupted") {
		t.Errorf("coordinate reported %q, want the interruption", msg)
	}
}
