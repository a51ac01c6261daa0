//go:build unix

package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"testing"
)

// texsim runs this test binary as texsim on args, returning its stdout
// and stderr, and fails the test unless it exits 0.
func texsim(t *testing.T, args ...string) (stdout, stderr []byte) {
	t.Helper()
	stdout, stderr, code := texsimExit(t, args...)
	if code != 0 {
		t.Fatalf("texsim %v: exit %d\n%s", args, code, stderr)
	}
	return stdout, stderr
}

// texsimExit runs this test binary as texsim on args, returning its
// stdout, stderr and exit code.
func texsimExit(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), texsimEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("texsim %v: %v", args, err)
		}
		return out.Bytes(), errOut.Bytes(), ee.ExitCode()
	}
	return out.Bytes(), errOut.Bytes(), 0
}

// timingLines matches the wall-time lines of texsim's text output.
var timingLines = regexp.MustCompile(`(?m)^(--- .* done in .* ---|=== [0-9]+ experiments in .* ===)\n`)

// TestProgressCoversArchitecture pins -progress on a request kind other
// than experiments: an architecture comparison is one job, reported as
// [1/1], and progress lines go to stderr only.
func TestProgressCoversArchitecture(t *testing.T) {
	args := []string{"-arch", "both", "-scenes", "goblet", "-scale", "8"}
	plain, _ := texsim(t, args...)
	withProgress, stderr := texsim(t, append(args, "-progress")...)
	if !bytes.Contains(stderr, []byte("texsim: [1/1] architecture ")) {
		t.Errorf("stderr has no [1/1] architecture progress line:\n%s", stderr)
	}
	if got, want := timingLines.ReplaceAll(withProgress, nil), timingLines.ReplaceAll(plain, nil); !bytes.Equal(got, want) {
		t.Errorf("-progress changed stdout:\n%s\nwithout it:\n%s", got, want)
	}
}
