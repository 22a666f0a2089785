//go:build !linux

package main

import (
	"syscall"
	"time"
)

// cpuTime is the CPU time the process has consumed (user + system).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sleepFor is time.Sleep where nanosleep(2) is not to hand.
func sleepFor(d time.Duration) { time.Sleep(d) }
