//go:build unix

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"texcache"
)

// fakeWorkerEnv names a directory when the test binary is re-executed as
// a coordinator worker: TestMain then runs fakeWorker instead of the
// tests. fakeCoordinatorEnv does the same for a whole coordinator over
// fake workers, and texsimEnv runs texsim itself on the arguments.
const (
	fakeWorkerEnv      = "TEXSIM_TEST_FAKE_WORKER_DIR"
	fakeCoordinatorEnv = "TEXSIM_TEST_FAKE_COORDINATOR_DIR"
	texsimEnv          = "TEXSIM_TEST_RUN_MAIN"
)

func TestMain(m *testing.M) {
	if os.Getenv(texsimEnv) != "" {
		os.Exit(run())
	}
	if dir := os.Getenv(fakeCoordinatorEnv); dir != "" {
		os.Exit(fakeCoordinator(dir))
	}
	if dir := os.Getenv(fakeWorkerEnv); dir != "" {
		os.Exit(fakeWorker(dir, os.Args[1:]))
	}
	os.Exit(m.Run())
}

// fakeGrid is the two-worker coordination the fakes run.
const fakeGrid = `{"scenes":["flight","town"],"configs":[{"size_bytes":2048,"ways":1,"line_bytes":64}]}`

// fakeCoordinator runs a two-worker coordination over fake workers that
// record their pids in dir.
func fakeCoordinator(dir string) int {
	os.Unsetenv(fakeCoordinatorEnv)
	os.Setenv(fakeWorkerEnv, dir)
	f := flags{gridFile: "-", coordinate: 2, scale: 8}
	req, err := buildRequest(f, strings.NewReader(fakeGrid))
	if err != nil {
		return fail(err)
	}
	return coordinate(context.Background(), f, texcache.NormalizeRequest(req), filepath.Join(dir, "traces"))
}

// fakeWorker stands in for a `texsim -grid … -shard i/n` worker. It
// records its pid in dir, then waits to be killed when dir holds a file
// named "hang-i". Otherwise shard 0 exits at once without a row, and
// every other shard writes far more than a pipe buffer holds of lines
// the merge rejects, so it blocks once the coordinator stops reading.
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
	index, _, _ := strings.Cut(shard, "/")
	if _, err := os.Stat(filepath.Join(dir, "hang-"+index)); err == nil {
		select {}
	}
	if index == "0" {
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

// awaitPids waits up to 30s for both fake workers to record their pids.
func awaitPids(dir string) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if pids, _ := filepath.Glob(filepath.Join(dir, "pid-*")); len(pids) == 2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
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
	f := flags{gridFile: "-", coordinate: 2, scale: 8}
	req, err := buildRequest(f, strings.NewReader(fakeGrid))
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
	if err := os.WriteFile(filepath.Join(dir, "hang-0"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	code, msg := coordinateFakes(t, ctx, dir, func() {
		awaitPids(dir)
		cancel()
	})
	if code == 0 {
		t.Error("interrupted coordinate exited 0")
	}
	if !strings.Contains(msg, "interrupted") {
		t.Errorf("coordinate reported %q, want the interruption", msg)
	}
}

// gone reports whether pid no longer runs. A zombie counts as gone: it
// has exited and waits only for its new parent to reap it.
func gone(pid int) bool {
	stat, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return true
	}
	// The state follows the parenthesized command name.
	i := bytes.LastIndexByte(stat, ')')
	return i >= 0 && i+2 < len(stat) && stat[i+2] == 'Z'
}

// TestCoordinatorKilledStopsWorkers: a coordinator killed with SIGKILL
// runs no cleanup, so its workers must die with it rather than keep
// rendering into its store.
func TestCoordinatorKilledStopsWorkers(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the parent-death signal is Linux-only")
	}
	dir := t.TempDir()
	for _, f := range []string{"hang-0", "hang-1"} {
		if err := os.WriteFile(filepath.Join(dir, f), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	coord := exec.Command(exe)
	// The killed coordinator leaks its temp dir; keep it under dir.
	coord.Env = append(os.Environ(), fakeCoordinatorEnv+"="+dir, "TMPDIR="+dir)
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	awaitPids(dir)
	coord.Process.Kill()
	coord.Wait()

	pids := workerPids(t, dir)
	// A failing run must not leave its workers behind.
	t.Cleanup(func() {
		for _, pid := range pids {
			syscall.Kill(pid, syscall.SIGKILL)
		}
	})
	if len(pids) != 2 {
		t.Fatalf("%d workers recorded a pid, want 2", len(pids))
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, pid := range pids {
		for !gone(pid) && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if !gone(pid) {
			t.Errorf("worker pid %d still runs 5s after its coordinator was killed", pid)
		}
	}
}
