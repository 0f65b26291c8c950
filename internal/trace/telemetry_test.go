package trace

import (
	"context"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

// TestTraceFamiliesGolden pins the repro_trace_* families a tracer
// exposes: exactly these four, each with its kind and help text, and the
// values three roots (one forced, two dropped) give them.
func TestTraceFamiliesGolden(t *testing.T) {
	golden := map[string]string{
		"repro_trace_started_total": "counter Traces opened at this process's roots.",
		"repro_trace_kept_total":    "counter Traces retained in the /debug/traces ring, by retention cause.",
		"repro_trace_dropped_total": "counter Traces discarded at the root by the sampling policy.",
		"repro_trace_evicted_total": "counter Kept traces pushed out of the ring by newer ones.",
	}
	tr := NewTracer(Options{Sample: 0})
	reg := telemetry.NewRegistry()
	tr.RegisterMetrics(reg)
	for i := 0; i < 3; i++ {
		_, root := tr.StartRoot(context.Background(), "root")
		if i == 0 {
			root.Keep()
		}
		root.End()
	}
	out := reg.Render()

	telemetrytest.CheckFamilies(t, out, "repro_trace_", golden)
	for _, series := range []string{
		"repro_trace_started_total 3",
		`repro_trace_kept_total{cause="forced"} 1`,
		`repro_trace_kept_total{cause="slow"} 0`,
		`repro_trace_kept_total{cause="sampled"} 0`,
		"repro_trace_dropped_total 2",
		"repro_trace_evicted_total 0",
	} {
		if !strings.Contains(out, "\n"+series+"\n") {
			t.Errorf("exposition missing %s:\n%s", series, out)
		}
	}
}
