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

func TestStaleCacheColdMiss(t *testing.T) {
	c := NewStaleCache(nil, &Policy{StaleGrace: time.Hour})
	key := "key-7"
	hash := policy.HashString(key)
	if _, _, ok := c.get(key, hash, time.Unix(0, 0)); ok {
		t.Fatal("cold key served")
	}
	if st := c.Stats(); st.ColdMisses != 1 {
		t.Fatalf("stats = %+v, want 1 cold miss", st)
	}
}

// TestStaleFamiliesGolden pins the one family a StaleCache exposes,
// repro_stale_served_total, with its kind and help text, and the value
// one stale answer gives it.
func TestStaleFamiliesGolden(t *testing.T) {
	golden := map[string]string{
		"repro_stale_served_total": "counter Indeterminates answered with a last-known-good decision (Degraded, within the stale grace).",
	}
	below := &scriptedProvider{verdict: map[string]policy.Decision{"alice": policy.DecisionPermit}}
	now := time.Unix(1_700_000_000, 0)
	c := NewStaleCache(below, &Policy{StaleGrace: time.Minute, Clock: func() time.Time { return now }})
	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg)
	warm := policy.NewAccessRequest("alice", "res", "read")
	cold := policy.NewAccessRequest("bob", "res", "read")
	policy.Decide(context.Background(), c, warm, time.Time{})
	below.down = true
	now = now.Add(time.Second)
	if res := policy.Decide(context.Background(), c, warm, time.Time{}); !res.Degraded {
		t.Fatalf("warm key during the outage = %+v, want Degraded", res)
	}
	if res := policy.Decide(context.Background(), c, cold, time.Time{}); res.Degraded {
		t.Fatalf("cold key during the outage = %+v, want fail-closed", res)
	}
	out := reg.Render()
	telemetrytest.CheckFamilies(t, out, "repro_stale_", golden)
	if !strings.Contains(out, "\nrepro_stale_served_total 1\n") {
		t.Errorf("exposition missing repro_stale_served_total 1:\n%s", out)
	}
}
