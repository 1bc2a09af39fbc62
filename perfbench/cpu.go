package main

import (
	"syscall"
	"time"
)

// The timed end-to-end quantities — set-up, solves, projections and the
// closed-loop throughput — are measured in process CPU time (user plus
// system, every thread), not wall time. On a virtual machine the
// hypervisor may take a vCPU away for a large and varying share of a run
// (steal); wall time stretches with it, while the kernel leaves stolen
// time out of a task's CPU time. CPU time also leaves out time blocked in
// I/O such as fsync: those waits are not what the benchmark compares.

// cpuNow returns the CPU time the process has used so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSince returns the process CPU seconds used since c0 (a cpuNow
// reading).
func cpuSince(c0 time.Duration) float64 { return (cpuNow() - c0).Seconds() }
