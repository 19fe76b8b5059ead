package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// Idle polling. On a virtual machine an idle CPU halts, and waking it for
// the next request costs a hypervisor reschedule whose delay depends on
// the host's other tenants. Measured on a 2-vCPU virtual machine,
// that wake-up delay showed up as 5-17% CPU steal per run and swung the
// open-loop read p99 of identical runs by 2x. While a run measures, one
// spinner process per CPU at the lowest scheduling priority keeps the CPUs
// out of the idle state; any runnable benchmark thread preempts it. It is
// the software counterpart of disabling deep C-states for benchmarking, and
// it applies equally to every commit the benchmark compares.

// idlePollMaxLife bounds a spinner's life should its parent vanish without
// closing the pipe.
const idlePollMaxLife = 15 * time.Minute

// spinners are the running idle-poll processes.
type spinners struct {
	cmds  []*exec.Cmd
	pipes []io.WriteCloser
}

// startSpinners starts one idle-poll process per CPU.
func startSpinners() (*spinners, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("idle poll: %w", err)
	}
	s := &spinners{}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, "--idle-poll-child")
		in, err := cmd.StdinPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("idle poll: %w", err)
		}
		s.cmds = append(s.cmds, cmd)
		s.pipes = append(s.pipes, in)
	}
	return s, nil
}

// stop ends every spinner and waits for it to exit.
func (s *spinners) stop() {
	for _, p := range s.pipes {
		p.Close() // EOF on the child's stdin ends it
	}
	for _, c := range s.cmds {
		_ = c.Wait() // the exit status of a spinner carries no information
	}
}

// idlePollChild is the spinner's body: lowest priority, one thread,
// spinning until its stdin closes or idlePollMaxLife passes.
func idlePollChild() int {
	runtime.GOMAXPROCS(1)
	// Linux applies PRIO_PROCESS priorities per thread, so the spinning
	// goroutine keeps the thread it lowered.
	runtime.LockOSThread()
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
		return 1 // never spin at normal priority
	}
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	deadline := time.Now().Add(idlePollMaxLife)
	for time.Now().Before(deadline) {
		for i := 0; i < 1_000_000; i++ {
		}
	}
	return 0
}
