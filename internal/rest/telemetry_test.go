package rest

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

// TestRestFamiliesGolden pins the repro_rest_* families a middleware
// exposes: exactly these three, each with its kind and help text, and the
// values one round of clinic traffic gives them.
func TestRestFamiliesGolden(t *testing.T) {
	golden := map[string]string{
		"repro_rest_requests_total":    "counter Accesses intercepted by the REST enforcement point.",
		"repro_rest_outcomes_total":    "counter Enforcement outcomes at the REST enforcement point.",
		"repro_rest_transformed_total": "counter Responses rewritten by content obligations.",
	}
	mw, srv := newClinicServer(t)
	reg := telemetry.NewRegistry()
	mw.RegisterMetrics(reg)
	for _, p := range []struct{ path, subject, roles string }{
		{"/records/rec-7", "alice", "doctor"},
		{"/records/rec-7", "nina", "nurse"},
		{"/records/rec-7", "mallory", "visitor"},
		{"/records/rec-7", "audrey", "auditor"},
		{"/records/rec-7", "", ""},
		{"/admin/users", "alice", "doctor"},
	} {
		get(t, srv.URL+p.path, p.subject, p.roles)
	}
	out := reg.Render()

	telemetrytest.CheckFamilies(t, out, "repro_rest_", golden)
	for _, series := range []string{
		"repro_rest_requests_total 6",
		`repro_rest_outcomes_total{outcome="permitted"} 2`,
		`repro_rest_outcomes_total{outcome="denied"} 4`,
		`repro_rest_outcomes_total{outcome="unrouted"} 1`,
		`repro_rest_outcomes_total{outcome="unauthenticated"} 1`,
		"repro_rest_transformed_total 1",
	} {
		if !strings.Contains(out, "\n"+series+"\n") {
			t.Errorf("exposition missing %s:\n%s", series, out)
		}
	}
}
