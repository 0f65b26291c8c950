package pdp

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/pip"
	"repro/internal/policy"
)

// resourcePolicies builds a policy base with one policy per resource plus a
// global deny for the "restricted" classification.
func resourcePolicies(n int) *policy.PolicySet {
	b := policy.NewPolicySet("base").Combining(policy.DenyOverrides)
	for i := 0; i < n; i++ {
		res := fmt.Sprintf("res-%d", i)
		b.Add(policy.NewPolicy("pol-" + res).
			Combining(policy.FirstApplicable).
			When(policy.MatchResourceID(res)).
			Rule(policy.Permit("allow-read").When(policy.MatchActionID("read")).Build()).
			Rule(policy.Deny("default").Build()).
			Build())
	}
	b.Add(policy.NewPolicy("global-restricted").
		Combining(policy.FirstApplicable).
		When(policy.MatchResource(policy.AttrClassification, policy.String("restricted"))).
		Rule(policy.Deny("no-restricted").Build()).
		Build())
	return b.Build()
}

func TestEngineBasicDecisions(t *testing.T) {
	e := New("pdp-1")
	if err := e.SetRoot(resourcePolicies(4)); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		req  *policy.Request
		want policy.Decision
	}{
		{"read-allowed", policy.NewAccessRequest("u", "res-2", "read"), policy.DecisionPermit},
		{"write-denied", policy.NewAccessRequest("u", "res-2", "write"), policy.DecisionDeny},
		{"unknown-resource", policy.NewAccessRequest("u", "res-99", "read"), policy.DecisionNotApplicable},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := e.Decide(context.Background(), tt.req); got.Decision != tt.want {
				t.Errorf("got %v, want %v", got.Decision, tt.want)
			}
		})
	}
	st := e.Stats()
	if st.Evaluations != 3 || st.Permits != 1 || st.Denies != 1 || st.NotApplicables != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineNoPolicy(t *testing.T) {
	e := New("empty")
	res := e.Decide(context.Background(), policy.NewAccessRequest("u", "r", "read"))
	if res.Decision != policy.DecisionIndeterminate || !errors.Is(res.Err, ErrNoPolicy) {
		t.Errorf("got %v / %v, want Indeterminate / ErrNoPolicy", res.Decision, res.Err)
	}
}

func TestEngineRejectsInvalidRoot(t *testing.T) {
	e := New("pdp")
	if err := e.SetRoot(nil); err == nil {
		t.Error("nil root must be rejected")
	}
	bad := &policy.Policy{ID: "", Combining: policy.DenyOverrides}
	if err := e.SetRoot(bad); err == nil {
		t.Error("invalid root must be rejected")
	}
}

func TestIndexMatchesLinearScan(t *testing.T) {
	// The compiled program's posting-list narrowing is an optimisation: it
	// must never change decisions against the plain linear interpreter.
	root := resourcePolicies(50)
	indexed := New("indexed")
	if err := indexed.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	reqs := []*policy.Request{
		policy.NewAccessRequest("u", "res-0", "read"),
		policy.NewAccessRequest("u", "res-49", "write"),
		policy.NewAccessRequest("u", "res-7", "read").
			Add(policy.CategoryResource, policy.AttrClassification, policy.String("restricted")),
		policy.NewAccessRequest("u", "nonexistent", "read"),
	}
	for i, req := range reqs {
		a := interpret(root, req, at, nil)
		b := indexed.DecideAt(context.Background(), req, at)
		if a.Decision != b.Decision {
			t.Errorf("request %d: linear=%v indexed=%v", i, a.Decision, b.Decision)
		}
		if a.By != b.By {
			t.Errorf("request %d: deciders diverge: %q vs %q", i, a.By, b.By)
		}
	}
	st := indexed.Stats()
	if st.IndexedCandidates == 0 || st.CompiledEvaluations != st.Evaluations {
		t.Errorf("compiled program should answer every request and report candidate counts: %+v", st)
	}
	// Selectivity: with 51 children, candidates per request must be tiny.
	perReq := float64(st.IndexedCandidates) / float64(st.Evaluations)
	if perReq > 3 {
		t.Errorf("program considered %.1f candidates/request, want <= 3", perReq)
	}
}

func TestIndexPreservesFirstApplicableOrder(t *testing.T) {
	// A catch-all deny placed before a specific permit must win under
	// first-applicable even when the posting lists pull the specific policy.
	root := policy.NewPolicySet("ordered").Combining(policy.FirstApplicable).
		Add(
			policy.NewPolicy("freeze").
				Combining(policy.FirstApplicable).
				Rule(policy.Deny("deny-all").When(policy.MatchActionID("write")).Build()).
				Build(),
			policy.NewPolicy("specific").
				Combining(policy.FirstApplicable).
				When(policy.MatchResourceID("db")).
				Rule(policy.Permit("ok").Build()).
				Build(),
		).Build()
	indexed := New("indexed")
	if err := indexed.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	if st := indexed.Stats(); st.RootChildren != 2 {
		t.Fatalf("program covers %d root children, want 2", st.RootChildren)
	}
	res := indexed.Decide(context.Background(), policy.NewAccessRequest("u", "db", "write"))
	if res.Decision != policy.DecisionDeny {
		t.Errorf("got %v, want Deny (catch-all must keep its position)", res.Decision)
	}
	res = indexed.Decide(context.Background(), policy.NewAccessRequest("u", "db", "read"))
	if res.Decision != policy.DecisionPermit {
		t.Errorf("got %v, want Permit", res.Decision)
	}
}

func TestDecisionCache(t *testing.T) {
	now := time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)
	e := New("cached",
		WithDecisionCache(30*time.Second, 0),
		WithClock(func() time.Time { return now }))
	if err := e.SetRoot(resourcePolicies(4)); err != nil {
		t.Fatal(err)
	}
	req := policy.NewAccessRequest("u", "res-1", "read")
	for i := 0; i < 5; i++ {
		if res := e.Decide(context.Background(), req); res.Decision != policy.DecisionPermit {
			t.Fatalf("decision %d = %v", i, res.Decision)
		}
	}
	st := e.Stats()
	if st.Evaluations != 1 || st.CacheHits != 4 {
		t.Errorf("stats = %+v, want 1 evaluation + 4 hits", st)
	}

	// TTL expiry forces re-evaluation.
	now = now.Add(time.Minute)
	e.Decide(context.Background(), req)
	if st := e.Stats(); st.Evaluations != 2 {
		t.Errorf("after TTL: evaluations = %d, want 2", st.Evaluations)
	}
}

func TestSetRootFlushesCache(t *testing.T) {
	now := time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)
	e := New("cached",
		WithDecisionCache(time.Hour, 0),
		WithClock(func() time.Time { return now }))
	permitAll := policy.NewPolicySet("v1").Combining(policy.PermitUnlessDeny).Build()
	if err := e.SetRoot(permitAll); err != nil {
		t.Fatal(err)
	}
	req := policy.NewAccessRequest("u", "r", "read")
	if res := e.Decide(context.Background(), req); res.Decision != policy.DecisionPermit {
		t.Fatalf("v1 decision = %v", res.Decision)
	}
	denyAll := policy.NewPolicySet("v2").Combining(policy.DenyUnlessPermit).Build()
	if err := e.SetRoot(denyAll); err != nil {
		t.Fatal(err)
	}
	if res := e.Decide(context.Background(), req); res.Decision != policy.DecisionDeny {
		t.Errorf("after policy update decision = %v, want Deny (cache flushed)", res.Decision)
	}
}

func TestCacheBoundEviction(t *testing.T) {
	e := New("small-cache", WithDecisionCache(time.Hour, 2))
	if err := e.SetRoot(resourcePolicies(8)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		e.Decide(context.Background(), policy.NewAccessRequest("u", fmt.Sprintf("res-%d", i), "read"))
	}
	if n := e.Stats().CacheEntries; n > 2 {
		t.Errorf("cache holds %d entries, bound is 2", n)
	}
}

func TestEngineWithResolver(t *testing.T) {
	dir := pip.NewDirectory("idp")
	dir.AddSubject(pip.Subject{ID: "alice", Roles: []string{"auditor"}})
	root := policy.NewPolicySet("base").Combining(policy.DenyUnlessPermit).
		Add(policy.NewPolicy("auditors").
			Combining(policy.DenyUnlessPermit).
			Rule(policy.Permit("allow").
				If(policy.AttrContains(policy.CategorySubject, policy.AttrSubjectRole, policy.String("auditor"))).
				Build()).
			Build()).
		Build()
	e := New("pdp", WithResolver(dir))
	if err := e.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	if res := e.Decide(context.Background(), policy.NewAccessRequest("alice", "ledger", "read")); res.Decision != policy.DecisionPermit {
		t.Errorf("alice = %v, want Permit", res.Decision)
	}
	if res := e.Decide(context.Background(), policy.NewAccessRequest("bob", "ledger", "read")); res.Decision != policy.DecisionDeny {
		t.Errorf("bob = %v, want Deny", res.Decision)
	}
}

func TestDecideAtTimeDependentPolicy(t *testing.T) {
	day := policy.Call(policy.FnLessThan,
		policy.Call(policy.FnHourOfDay, policy.Call(policy.FnOneAndOnly, policy.EnvAttr(policy.AttrCurrentTime))),
		policy.Lit(policy.Integer(18)))
	root := policy.NewPolicySet("time").Combining(policy.DenyUnlessPermit).
		Add(policy.NewPolicy("office-hours").
			Combining(policy.DenyUnlessPermit).
			Rule(policy.Permit("day-only").If(day).Build()).
			Build()).
		Build()
	e := New("pdp")
	if err := e.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	req := policy.NewAccessRequest("u", "r", "read")
	noon := time.Date(2026, 6, 12, 12, 0, 0, 0, time.UTC)
	night := time.Date(2026, 6, 12, 22, 0, 0, 0, time.UTC)
	if res := e.DecideAt(context.Background(), req, noon); res.Decision != policy.DecisionPermit {
		t.Errorf("noon = %v, want Permit", res.Decision)
	}
	if res := e.DecideAt(context.Background(), req, night); res.Decision != policy.DecisionDeny {
		t.Errorf("night = %v, want Deny", res.Decision)
	}
}
