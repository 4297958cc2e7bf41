package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a reading of the process-wide counters a timed section
// is bracketed with.
type procSample struct {
	cpu     time.Duration
	mallocs uint64
	gcPause time.Duration
}

func sampleProcess() procSample {
	var ru syscall.Rusage
	var s procSample
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	s.gcPause = time.Duration(ms.PauseTotalNs)
	return s
}

// peakRSSMB is the process's high-water resident set in MB, from
// /proc/self/status (getrusage's ru_maxrss on other systems).
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// setProcessMetrics fills the process.* rows from the samples taken
// around a section of ops operations.
func setProcessMetrics(m *metricSet, before, after procSample, ops int) {
	cpu := (after.cpu - before.cpu).Seconds()
	m.set("process.cpu_s", cpu)
	m.set("process.cpu_s_per_op", ratio(cpu, float64(ops)))
	m.set("process.allocs_per_op", ratio(float64(after.mallocs-before.mallocs), float64(ops)))
	m.set("process.gc_pause_ms_total", float64(after.gcPause-before.gcPause)/1e6)
	m.set("process.peak_rss_mb", peakRSSMB())
}
