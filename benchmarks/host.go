package main

import (
	"bytes"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// Host-side clocks and counters. Everything here observes the process from
// outside the simulator: nothing in the repo's packages is instrumented.

// cpuTime returns the process CPU time (user+sys) consumed so far. On this
// class of host (2 vCPUs, heavy hypervisor steal) wall time per unit moves
// by +-15-20 % between identical runs while process CPU time at GOMAXPROCS=1
// repeats within a few percent, so every speed metric is CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// heapCounters returns cumulative heap allocations (objects, bytes) and
// completed GC cycles, without stopping the world.
func heapCounters() (objects, bytes, gcCycles uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64(), allocSamples[2].Value.Uint64()
}

// hostTicks returns the host-wide steal and total jiffies from /proc/stat
// (zeros where the file is unavailable).
func hostTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(string(f), 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(string(f[0]), 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// median of xs on a sorted copy (mean of the two middle values for an even
// count); 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it (the choosing-metrics rule for tail reporting) and its
// value; pct is 0 when the sample is too small to have one.
func tail(xs []float64) (pct, v float64) {
	n := len(xs)
	if n < 20 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := n - 11 // ten samples lie beyond s[idx]
	return 100 * float64(idx+1) / float64(n), s[idx]
}
