//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// cpuTime is the CPU time the process has consumed (user + system, all
// threads), read from CLOCK_PROCESS_CPUTIME_ID: scheduler-accounted
// nanoseconds, not the tick-sampled figures getrusage returns.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// sleepFor blocks the calling thread in nanosleep(2). time.Sleep is not
// precise enough for an open-loop generator: an idle Go scheduler waits for
// timers in epoll_wait, whose timeout is whole milliseconds, so a 50 us
// sleep takes about 1.1 ms; nanosleep oversleeps by well under 0.1 ms.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early return only sends the next job's check sooner
}
