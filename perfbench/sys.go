package main

import (
	"runtime"
	"syscall"
	"time"
)

// processStart approximates the moment the process started: package
// variables initialize before main, after the runtime is up.
var processStart = time.Now()

// cpuSeconds returns the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSnap is the slice of runtime.MemStats the benchmark reports.
type memSnap struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}

// runtimeMetrics reports allocation and GC activity between two snapshots.
func runtimeMetrics(a, b memSnap) (allocMB, gcCount, gcPauseMS float64) {
	return float64(b.totalAlloc-a.totalAlloc) / (1 << 20),
		float64(b.numGC - a.numGC),
		float64(b.pauseNs-a.pauseNs) / 1e6
}
