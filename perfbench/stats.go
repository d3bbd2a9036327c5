package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Process-wide Go runtime counters the benchmark reads.
const (
	mHeapLive = "/gc/heap/live:bytes"
	mAllocs   = "/gc/heap/allocs:objects"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
)

type rtSample struct{ heapLive, allocs, gcCPU, totalCPU float64 }

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: mHeapLive}, {Name: mAllocs}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	val := func(m metrics.Sample) float64 {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		case metrics.KindFloat64:
			return m.Value.Float64()
		}
		return 0
	}
	return rtSample{heapLive: val(s[0]), allocs: val(s[1]), gcCPU: val(s[2]), totalCPU: val(s[3])}
}
