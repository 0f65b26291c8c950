package workload

import (
	"context"
	"testing"
	"time"

	"repro/internal/pdp"
	"repro/internal/policy"
)

// The cold-subject scenario: requests carry only identifiers, and subject
// attributes are fetched lazily mid-evaluation through the PIP stack —
// decisions must match the warm (pre-resolved) requests exactly, and the
// information-point cache must absorb the repeat traffic.
func TestColdSubjectDecisionsMatchWarm(t *testing.T) {
	cfg := Config{Users: 40, Resources: 100, Roles: 5, Seed: 7}
	coldGen := NewGenerator(cfg)
	warmGen := NewGenerator(cfg) // same seed: same request stream

	pipStack := coldGen.InformationPoints("pip", time.Minute)
	cold := pdp.New("cold", pdp.WithResolver(pipStack))
	if err := cold.SetRoot(coldGen.PolicyBase("base")); err != nil {
		t.Fatal(err)
	}
	// The warm engine gets no resolver at all: every attribute must
	// arrive in the request.
	warm := pdp.New("warm")
	if err := warm.SetRoot(warmGen.PolicyBase("base")); err != nil {
		t.Fatal(err)
	}

	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	ctx := context.Background()
	permits := 0
	for i := 0; i < 500; i++ {
		coldReq := coldGen.NextRequest()
		warmReq := warmGen.WarmRequest()
		if got, ok := coldReq.Get(policy.CategorySubject, policy.AttrSubjectRole); ok {
			t.Fatalf("cold request %d carries roles: %v", i, got)
		}
		coldRes := policy.Decide(ctx, cold, coldReq, at)
		warmRes := policy.Decide(ctx, warm, warmReq, at)
		if coldRes.Decision != warmRes.Decision {
			t.Fatalf("request %d (%s): cold %s vs warm %s",
				i, coldReq, coldRes.Decision, warmRes.Decision)
		}
		if coldRes.Decision == policy.DecisionPermit {
			permits++
		}
	}
	if permits == 0 {
		t.Fatal("degenerate workload: no permits at all")
	}
	st := pipStack.Stats()
	if st.Hits == 0 {
		t.Fatalf("PIP cache never hit across 500 cold decisions: %+v", st)
	}
}
