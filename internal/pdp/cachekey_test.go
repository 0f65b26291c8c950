package pdp

import (
	"context"
	"testing"
	"time"

	"repro/internal/policy"
)

// TestCacheKeyKindCollisionFailsClosed: a String("9") clearance is a type
// error for a clearance < 5 veto, so deny-overrides answers Indeterminate.
// A cached engine that first saw Integer(9) must not answer String("9")
// with the Permit it cached for it.
func TestCacheKeyKindCollisionFailsClosed(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	root := policy.NewPolicySet("root").Combining(policy.DenyOverrides).
		Add(policy.NewPolicy("veto").Combining(policy.DenyOverrides).
			Rule(policy.Deny("low-clearance").
				If(policy.Call(policy.FnLessThan, policy.SubjectAttr(policy.AttrClearance), policy.Lit(policy.Integer(5)))).
				Build()).
			Build(),
			policy.NewPolicy("open").Combining(policy.FirstApplicable).Rule(policy.Permit("all").Build()).Build()).
		Build()
	req := func(clearance policy.Value) *policy.Request {
		return policy.NewAccessRequest("u1", "res-1", "read").Add(policy.CategorySubject, policy.AttrClearance, clearance)
	}
	plain := New("plain")
	cached := New("cached", WithDecisionCache(time.Hour, 0))
	for _, e := range []*Engine{plain, cached} {
		if err := e.SetRoot(root); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if res := plain.DecideAt(ctx, req(policy.String("9")), at); res.Decision != policy.DecisionIndeterminate {
		t.Fatalf("uncached String(9) = %v, want Indeterminate (type mismatch)", res.Decision)
	}
	if res := cached.DecideAt(ctx, req(policy.Integer(9)), at); res.Decision != policy.DecisionPermit {
		t.Fatalf("cached Integer(9) = %v, want Permit", res.Decision)
	}
	if res := cached.DecideAt(ctx, req(policy.String("9")), at); res.Decision != policy.DecisionIndeterminate {
		t.Fatalf("cached String(9) after Integer(9) = %v, want Indeterminate", res.Decision)
	}
}
