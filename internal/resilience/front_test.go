package resilience

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

// TestStaleCacheColdMiss: during an outage a key never decided fails
// closed, whatever other keys the cache holds.
func TestStaleCacheColdMiss(t *testing.T) {
	below := &scriptedProvider{verdict: map[string]policy.Decision{"alice": policy.DecisionPermit}}
	c := NewFrontCache(below, 0, &Policy{StaleGrace: time.Hour}, 8192)
	policy.Decide(context.Background(), c, policy.NewAccessRequest("alice", "res", "read"), time.Time{})
	below.down = true
	res := policy.Decide(context.Background(), c, policy.NewAccessRequest("bob", "res", "read"), time.Time{})
	if res.Decision != policy.DecisionIndeterminate || res.Degraded {
		t.Fatalf("cold key during the outage = %+v, want fail-closed Indeterminate", res)
	}
	if st := c.Stats(); st.Served != 0 {
		t.Fatalf("stats = %+v, want no stale serve", st)
	}
}

// TestStaleFamiliesGolden pins the families a FrontCache exposes, the
// repro_pdp_cache_* trio and repro_stale_served_total, with their kinds
// and help text, and the values a hit, a write and one stale answer give
// them.
func TestStaleFamiliesGolden(t *testing.T) {
	golden := map[string]string{
		"repro_pdp_cache_entries":             "gauge Decisions currently cached, summed across cache shards.",
		"repro_pdp_cache_hits_total":          "counter Decisions served from the decision cache.",
		"repro_pdp_cache_invalidations_total": "counter Cached decisions dropped by live policy updates.",
		"repro_stale_served_total":            "counter Indeterminates answered with a last-known-good decision (Degraded, within the stale grace).",
	}
	below := &scriptedProvider{verdict: map[string]policy.Decision{"alice": policy.DecisionPermit}}
	now := time.Unix(1_700_000_000, 0)
	c := NewFrontCache(below, time.Second, &Policy{StaleGrace: time.Minute, Clock: func() time.Time { return now }}, 8192)
	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg)
	warm := policy.NewAccessRequest("alice", "res", "read")
	cold := policy.NewAccessRequest("bob", "res", "read")
	other := policy.NewAccessRequest("alice", "other", "read")
	policy.Decide(context.Background(), c, warm, time.Time{})
	policy.Decide(context.Background(), c, other, time.Time{})
	policy.Decide(context.Background(), c, other, time.Time{}) // a fresh hit
	// A write to the policy of "other" retires its one entry.
	c.InvalidateChange(policy.NewPolicy("p").When(policy.MatchResourceID("other")).Build(), nil)
	below.down = true
	now = now.Add(time.Second)
	if res := policy.Decide(context.Background(), c, warm, time.Time{}); !res.Degraded {
		t.Fatalf("warm key during the outage = %+v, want Degraded", res)
	}
	if res := policy.Decide(context.Background(), c, cold, time.Time{}); res.Degraded {
		t.Fatalf("cold key during the outage = %+v, want fail-closed", res)
	}
	out := reg.Render()
	telemetrytest.CheckFamilies(t, out, "repro_", golden)
	for _, line := range []string{
		"repro_pdp_cache_hits_total 1",
		"repro_pdp_cache_entries 1",
		"repro_pdp_cache_invalidations_total 1",
		"repro_stale_served_total 1",
	} {
		if !strings.Contains(out, "\n"+line+"\n") {
			t.Errorf("exposition missing %s:\n%s", line, out)
		}
	}
}
