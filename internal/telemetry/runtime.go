package telemetry

import (
	"math"
	"runtime/metrics"
)

// readRuntime reads one runtime/metrics sample.
func readRuntime(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

// RegisterGoGC exposes the Go collector's work, read from runtime/metrics
// at scrape time: completed GC cycles, the heap goal, and the total time
// the world was stopped for GC.
func (r *Registry) RegisterGoGC() {
	r.CounterFunc("repro_go_gc_cycles_total", "Completed GC cycles (/gc/cycles/total:gc-cycles).",
		func() int64 { return int64(readRuntime("/gc/cycles/total:gc-cycles").Uint64()) })
	r.GaugeFunc("repro_go_gc_heap_goal_bytes", "Heap size the current GC cycle aims to finish under (/gc/heap/goal:bytes).",
		func() int64 { return int64(readRuntime("/gc/heap/goal:bytes").Uint64()) })
	r.Register("repro_go_gc_pause_seconds_total",
		"Stop-the-world time for GC (/sched/pauses/total/gc:seconds), summed from the histogram's bucket midpoints.",
		KindCounter, func() []Sample {
			return []Sample{{Value: histogramSum(readRuntime("/sched/pauses/total/gc:seconds").Float64Histogram())}}
		})
}

// histogramSum estimates the sum of a runtime histogram's samples from its
// bucket midpoints; an infinite edge counts as the bucket's finite one.
func histogramSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		sum += float64(n) * (lo + hi) / 2
	}
	return sum
}
