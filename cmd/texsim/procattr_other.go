//go:build !linux

package main

import "os/exec"

// dieWithParent is a no-op where the kernel offers no parent-death
// signal; workers then outlive a killed coordinator until their next
// write to its closed pipe.
func dieWithParent(cmd *exec.Cmd) {}
