package telemetry

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/telemetry/telemetrytest"
)

// TestGoGCFamiliesGolden pins the repro_go_gc_* families RegisterGoGC
// exposes: exactly these three, each with its kind and help text, and a
// cycle count that has seen the collection the test forces.
func TestGoGCFamiliesGolden(t *testing.T) {
	golden := map[string]string{
		"repro_go_gc_cycles_total":        "counter Completed GC cycles (/gc/cycles/total:gc-cycles).",
		"repro_go_gc_heap_goal_bytes":     "gauge Heap size the current GC cycle aims to finish under (/gc/heap/goal:bytes).",
		"repro_go_gc_pause_seconds_total": "counter Stop-the-world time for GC (/sched/pauses/total/gc:seconds), summed from the histogram's bucket midpoints.",
	}
	runtime.GC()
	r := NewRegistry()
	r.RegisterGoGC()
	out := r.Render()

	telemetrytest.CheckFamilies(t, out, "repro_go_gc_", golden)
	if strings.Contains(out, "\nrepro_go_gc_cycles_total 0\n") {
		t.Errorf("cycle count reads 0 after a forced collection:\n%s", out)
	}
}
