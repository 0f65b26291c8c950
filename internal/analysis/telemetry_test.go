package analysis

import (
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

// TestAnalysisFamiliesGolden pins the repro_analysis_* families an engine
// and its gate expose: exactly these six, each with its kind and help
// text, and the values one install and one strict rejection give them.
func TestAnalysisFamiliesGolden(t *testing.T) {
	golden := map[string]string{
		"repro_analysis_findings":              "gauge Static-analysis findings currently standing, by kind.",
		"repro_analysis_runs_total":            "counter Analysis runs, by mode (incremental delta vs full install).",
		"repro_analysis_claims":                "gauge Authorisation claims currently indexed.",
		"repro_analysis_latency_seconds":       "histogram Analysis run latency (incremental and full).",
		"repro_analysis_gate_checks_total":     "counter Admin-plane writes analysed by the policy lint gate.",
		"repro_analysis_gate_rejections_total": "counter Admin-plane writes the strict lint gate refused.",
	}
	e := NewEngine(Config{})
	e.Install(pol("a", policy.FirstApplicable, permitRead("res-1")))
	g := NewGate(e, ModeStrict)
	if _, err := g.Check("b", pol("b", policy.FirstApplicable, denyAll("res-1"))); err == nil {
		t.Fatal("strict gate admitted a cross-owner conflict")
	}
	reg := telemetry.NewRegistry()
	e.RegisterMetrics(reg)
	g.RegisterMetrics(reg)
	out := reg.Render()

	telemetrytest.CheckFamilies(t, out, "repro_analysis_", golden)
	for _, series := range []string{
		`repro_analysis_findings{kind="conflict"} 0`,
		`repro_analysis_runs_total{mode="full"} 1`,
		"repro_analysis_claims 1",
		"repro_analysis_gate_checks_total 1",
		"repro_analysis_gate_rejections_total 1",
	} {
		if !strings.Contains(out, "\n"+series+"\n") {
			t.Errorf("exposition missing %s:\n%s", series, out)
		}
	}
}
