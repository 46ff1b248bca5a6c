package main

import (
	"runtime"
	"syscall"
	"time"
)

// now is the benchmark's only wall-clock read. Every latency, window and
// span timestamp goes through it, so the determinism analyzer has exactly
// one site to reason about.
func now() time.Time {
	//detlint:ignore wallclock measurement harness: readings are reported as metrics and bound the timed window; they never reach a job spec, an input or a fingerprint
	return time.Now()
}

// msSince is the elapsed time since t in milliseconds.
func msSince(t time.Time) float64 { return ms(now().Sub(t)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// procUsage is the process's resource use so far: CPU time (user+sys, all
// threads — barrier spinning shows here and not in wall) and the resident-set
// high-water mark (Linux VmHWM, which is what ru_maxrss reports).
type procUsage struct {
	cpuS       float64
	peakRSSMiB float64
}

func usage() procUsage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procUsage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procUsage{
		cpuS:       tv(ru.Utime) + tv(ru.Stime),
		peakRSSMiB: float64(ru.Maxrss) / 1024, // ru_maxrss is in KiB on Linux
	}
}

// heapCounts reads the allocator's cumulative object and byte counts. It
// stops the world, so callers take it only outside timed regions.
func heapCounts() (mallocs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}
