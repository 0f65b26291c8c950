package federation

import (
	"context"
	"testing"

	"repro/internal/pap"
	"repro/internal/policy"
)

func refreshPolicy(id, res, allowed string) *policy.Policy {
	return policy.NewPolicy(id).
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID(res)).
		Rule(policy.Permit("allow").When(policy.MatchActionID(allowed)).Build()).
		Rule(policy.Deny("default").Build()).
		Build()
}

// TestDomainPDPFollowsPAPIncrementally verifies the domain's PAP→PDP
// pipeline: the first update installs a root, later updates patch it in
// place (observable through the engine's Updates counter), and decisions
// always reflect the latest administered policy.
func TestDomainPDPFollowsPAPIncrementally(t *testing.T) {
	d, err := NewDomain("clinic", newDetRand(7), epoch, later)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PAP.Put(refreshPolicy("p-records", "records", "read")); err != nil {
		t.Fatal(err)
	}
	req := policy.NewAccessRequest("alice", "records", "read")
	if got := policy.Decide(context.Background(), d.PDP, req, at); got.Decision != policy.DecisionPermit {
		t.Fatalf("after first Put: %v", got.Decision)
	}
	// Flip to write-only: the revocation must reach the PDP as a delta.
	if _, err := d.PAP.Put(refreshPolicy("p-records", "records", "write")); err != nil {
		t.Fatal(err)
	}
	if got := policy.Decide(context.Background(), d.PDP, req, at); got.Decision != policy.DecisionDeny {
		t.Fatalf("after revocation: %v, want deny", got.Decision)
	}
	if st := d.PDP.Stats(); st.Updates < 1 {
		t.Errorf("engine Updates = %d, want >= 1 (delta path, not rebuild)", st.Updates)
	}
	if err := d.PAP.Delete("p-records"); err != nil {
		t.Fatal(err)
	}
	if got := policy.Decide(context.Background(), d.PDP, req, at); got.Decision != policy.DecisionNotApplicable {
		t.Fatalf("after delete: %v, want not-applicable", got.Decision)
	}
	if n := d.RefreshErrors(); n != 0 {
		t.Errorf("refresh errors = %d, want 0", n)
	}
}

// TestDomainRefreshErrorSurfaced drives the refresh pipeline into a
// failing rebuild and asserts the failure is counted and reported instead
// of swallowed — the stale-policy observability fix. The store is
// corrupted through a retained policy pointer, modelling an administered
// policy going bad between validation and reassembly.
func TestDomainRefreshErrorSurfaced(t *testing.T) {
	d, err := NewDomain("clinic", newDetRand(8), epoch, later)
	if err != nil {
		t.Fatal(err)
	}
	var reported []error
	d.OnRefreshError(func(err error) { reported = append(reported, err) })

	p1 := refreshPolicy("p-a", "records", "read")
	if _, err := d.PAP.Put(p1); err != nil {
		t.Fatal(err)
	}
	// Force the next refresh down the full-rebuild fallback (a bare
	// policy root cannot be patched incrementally) and corrupt the stored
	// policy so the rebuild fails.
	if err := d.PDP.SetRoot(refreshPolicy("standalone", "other", "read")); err != nil {
		t.Fatal(err)
	}
	p1.Combining = 0 // invalidates the copy held by the store

	if _, err := d.PAP.Put(refreshPolicy("p-b", "charts", "read")); err != nil {
		t.Fatal(err)
	}
	if n := d.RefreshErrors(); n != 1 {
		t.Fatalf("refresh errors = %d, want 1", n)
	}
	if len(reported) != 1 || reported[0] == nil {
		t.Fatalf("callback reports = %v, want one error", reported)
	}
	// The helper itself propagates the rebuild failure.
	pb, err := d.PAP.Get("p-b")
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyPAPUpdate(d.PDP, d.PAP, pap.Update{ID: "p-b", Version: 1, Policy: pb}, "clinic-root"); err == nil {
		t.Error("ApplyPAPUpdate with a corrupt store must fail")
	}
}
