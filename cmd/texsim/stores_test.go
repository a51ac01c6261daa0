//go:build unix

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestStoresPersistAcrossRuns pins the two persistent tiers texsim opens
// for itself. A -json repeat on the same -result-dir is a result-store
// hit with the first run's bytes, and a repeat on the same -trace-dir
// loads its traces from disk and renders nothing.
func TestStoresPersistAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	traces, results := filepath.Join(dir, "traces"), filepath.Join(dir, "results")

	args := []string{"-exp", "table2.1", "-scenes", "goblet", "-scale", "8", "-json",
		"-trace-dir", traces, "-result-dir", results}
	first, _ := texsim(t, args...)
	second, stderr := texsim(t, args...)
	if !bytes.Equal(first, second) {
		t.Errorf("result-store repeat differs:\n%s\nfirst run:\n%s", second, first)
	}
	if !regexp.MustCompile(`engine\.result_cache\.store_hits=[1-9]`).Match(stderr) {
		t.Errorf("repeat was not served by the result store:\n%s", stderr)
	}

	// table2.1 renders its frame privately, so a trace-reading
	// experiment checks the trace store.
	args = []string{"-exp", "fig5.2", "-scenes", "goblet", "-scale", "8", "-trace-dir", traces}
	cold, _ := texsim(t, args...)
	warm, stderr := texsim(t, args...)
	if got, want := timingLines.ReplaceAll(warm, nil), timingLines.ReplaceAll(cold, nil); !bytes.Equal(got, want) {
		t.Errorf("trace-store repeat differs:\n%s\nfirst run:\n%s", got, want)
	}
	if !regexp.MustCompile(`engine\.trace_cache\.store_hits=[1-9]`).Match(stderr) ||
		bytes.Contains(stderr, []byte("engine.trace_cache.renders=")) {
		t.Errorf("repeat was not served by the trace store:\n%s", stderr)
	}
}

// TestRequestRenderWorkersReachTraceStore pins that a -request file's
// render_workers sizes the renders of the store-backed trace cache:
// one worker renders serially, with no tile pass, and two run it.
func TestRequestRenderWorkersReachTraceStore(t *testing.T) {
	for _, c := range []struct {
		workers int
		tiles   bool
	}{{1, false}, {2, true}} {
		dir := t.TempDir()
		req := filepath.Join(dir, "request.json")
		body := fmt.Sprintf(`{"scene":"goblet","scale":8,"render_workers":%d,`+
			`"configs":[{"size_bytes":32768,"line_bytes":128,"ways":2}]}`, c.workers)
		if err := os.WriteFile(req, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, stderr := texsim(t, "-request", req, "-trace-dir", filepath.Join(dir, "traces"))
		if got := bytes.Contains(stderr, []byte("render.tiles=")); got != c.tiles {
			t.Errorf("render_workers %d: tile pass ran = %v, want %v:\n%s", c.workers, got, c.tiles, stderr)
		}
	}
}

// TestUnusableStoreDirExits1 pins that a -trace-dir or -result-dir
// that cannot be created fails the run with exit 1 and the store's
// error, on the text and the NDJSON path alike.
func TestUnusableStoreDirExits1(t *testing.T) {
	plain := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(plain, "sub")
	base := []string{"-exp", "table2.1", "-scenes", "goblet", "-scale", "8"}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-trace-dir", bad}, "texsim: trace: opening store: cas: opening " + bad + ": "},
		{[]string{"-json", "-trace-dir", bad}, "texsim: trace: opening store: cas: opening " + bad + ": "},
		{[]string{"-json", "-result-dir", bad}, "texsim: engine: opening result store: cas: opening " + bad + ": "},
	} {
		stdout, stderr, code := texsimExit(t, append(base, c.args...)...)
		if code != 1 || len(stdout) != 0 || !bytes.Contains(stderr, []byte(c.want)) {
			t.Errorf("%v: exit %d, %d stdout bytes, stderr:\n%s\nwant exit 1, no output and %q",
				c.args, code, len(stdout), stderr, c.want)
		}
	}
}
