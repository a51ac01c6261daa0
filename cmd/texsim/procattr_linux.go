package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent makes the kernel send cmd's process SIGKILL when this
// process dies, so a coordinator killed without a chance to stop its
// workers (kill -9) does not leave them rendering into its store.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
