package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the utime and stime fields of
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// command prepares a program run that dies with the benchmark: the child
// gets SIGKILL if this process exits first, so no run leaves a server
// behind.
func command(ctx context.Context, path string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// exitUsage is what a finished process cost: its CPU (user+sys) and its
// peak resident set.
type exitUsage struct {
	cpu    time.Duration
	peakMB float64
}

// usageOf reads the rusage of a waited-for process.
func usageOf(ps *os.ProcessState) exitUsage {
	u := exitUsage{cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.peakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u
}

// procCPU reads a live process's user+sys CPU from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime field 14 and stime field 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procPeakRSS reads a live process's peak resident set (VmHWM) in MB from
// /proc/<pid>/status.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
