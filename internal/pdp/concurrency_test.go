package pdp

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
)

// TestConcurrentDecideWithAdministration hammers one engine with parallel
// decisions while an administrator swaps the policy base and flushes the
// cache — the live-reconfiguration scenario of Section 3.2 (Management).
// Every decision must be a valid outcome of one of the two installed
// bases; the race detector guards the internals.
func TestConcurrentDecideWithAdministration(t *testing.T) {
	permitBase := policy.NewPolicySet("permit-base").Combining(policy.DenyUnlessPermit).
		Add(policy.NewPolicy("open").
			Combining(policy.DenyUnlessPermit).
			Rule(policy.Permit("read-all").When(policy.MatchActionID("read")).Build()).
			Build()).
		Build()
	denyBase := policy.NewPolicySet("deny-base").Combining(policy.DenyOverrides).
		Add(policy.NewPolicy("closed").
			Combining(policy.FirstApplicable).
			Rule(policy.Deny("deny-all").Build()).
			Build()).
		Build()

	e := New("concurrent", WithDecisionCache(time.Second, 0))
	if err := e.SetRoot(permitBase); err != nil {
		t.Fatal(err)
	}

	const (
		readers   = 8
		decisions = 500
	)
	at := time.Date(2026, 6, 12, 12, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			req := policy.NewAccessRequest("u", "res", "read")
			for i := 0; i < decisions; i++ {
				res := e.DecideAt(context.Background(), req, at.Add(time.Duration(i)*time.Millisecond))
				if res.Decision != policy.DecisionPermit && res.Decision != policy.DecisionDeny {
					errs <- res.Decision.String()
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			base := policy.Evaluable(permitBase)
			if i%2 == 1 {
				base = denyBase
			}
			if err := e.SetRoot(base); err != nil {
				errs <- err.Error()
				return
			}
			e.FlushCache()
			_ = e.Stats()
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatalf("concurrent decision/administration failed: %s", msg)
	}
}
