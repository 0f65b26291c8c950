package pep

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/resilience"
)

func clinicRoot() *policy.PolicySet {
	return policy.NewPolicySet("root").Combining(policy.DenyOverrides).
		Add(policy.NewPolicy("records").
			Combining(policy.FirstApplicable).
			Rule(policy.Permit("doctors-read").
				When(policy.MatchRole("doctor"), policy.MatchActionID("read")).
				Obligation(policy.RequireObligation("log-access", policy.EffectPermit,
					map[string]string{"level": "info"})).
				Build()).
			Rule(policy.Permit("unknown-obligation").
				When(policy.MatchRole("experimental")).
				Obligation(policy.RequireObligation("quantum-check", policy.EffectPermit, nil)).
				Build()).
			Rule(policy.Deny("default").
				Obligation(policy.RequireObligation("alert", policy.EffectDeny, nil)).
				Build()).
			Build()).
		Build()
}

func newEngine(t *testing.T) *pdp.Engine {
	t.Helper()
	e := pdp.New("pdp")
	if err := e.SetRoot(clinicRoot()); err != nil {
		t.Fatal(err)
	}
	return e
}

func doctorReq(action string) *policy.Request {
	return policy.NewAccessRequest("alice", "rec-1", action).
		Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String("doctor"))
}

func TestEnforcePermitWithObligation(t *testing.T) {
	var logged []string
	enf := NewEnforcer("pep", newEngine(t),
		WithObligationHandler("log-access", func(ob policy.FulfilledObligation, req *policy.Request) error {
			logged = append(logged, req.SubjectID()+":"+ob.Attributes["level"].Str())
			return nil
		}),
		WithObligationHandler("alert", func(policy.FulfilledObligation, *policy.Request) error { return nil }),
	)
	out := enf.Enforce(context.Background(), doctorReq("read"))
	if !out.Allowed {
		t.Fatalf("denied: %v", out.Err)
	}
	if len(logged) != 1 || logged[0] != "alice:info" {
		t.Errorf("obligation handler saw %v", logged)
	}
}

func TestEnforceDeny(t *testing.T) {
	alerts := 0
	enf := NewEnforcer("pep", newEngine(t),
		WithObligationHandler("alert", func(policy.FulfilledObligation, *policy.Request) error {
			alerts++
			return nil
		}),
	)
	out := enf.Enforce(context.Background(), doctorReq("write"))
	if out.Allowed {
		t.Fatal("write must be denied")
	}
	if !errors.Is(out.Err, ErrDenied) {
		t.Errorf("want ErrDenied, got %v", out.Err)
	}
	if alerts != 1 {
		t.Errorf("deny-side obligation ran %d times, want 1", alerts)
	}
}

func TestEnforceFailClosedOnUnknownObligation(t *testing.T) {
	// The must-understand rule: a permit carrying an obligation the PEP
	// cannot handle is discarded.
	enf := NewEnforcer("pep", newEngine(t))
	req := policy.NewAccessRequest("bob", "rec-1", "read").
		Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String("experimental"))
	out := enf.Enforce(context.Background(), req)
	if out.Allowed {
		t.Fatal("permit with unhandled obligation must be discarded")
	}
	if !errors.Is(out.Err, ErrObligation) {
		t.Errorf("want ErrObligation, got %v", out.Err)
	}
	if st := enf.Stats(); st.ObligationFailures != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEnforceFailClosedOnObligationError(t *testing.T) {
	enf := NewEnforcer("pep", newEngine(t),
		WithObligationHandler("log-access", func(policy.FulfilledObligation, *policy.Request) error {
			return errors.New("audit log unreachable")
		}),
	)
	out := enf.Enforce(context.Background(), doctorReq("read"))
	if out.Allowed {
		t.Fatal("permit must be discarded when the obligation handler fails")
	}
	if !errors.Is(out.Err, ErrObligation) {
		t.Errorf("want ErrObligation, got %v", out.Err)
	}
}

func TestEnforceDenyBiasOnIndeterminate(t *testing.T) {
	empty := pdp.New("no-policy") // no root loaded: Indeterminate
	enf := NewEnforcer("pep", empty)
	out := enf.Enforce(context.Background(), doctorReq("read"))
	if out.Allowed {
		t.Fatal("Indeterminate must not allow access")
	}
	if !errors.Is(out.Err, ErrNotPermitted) {
		t.Errorf("want ErrNotPermitted, got %v", out.Err)
	}
}

// TestEnforceCacheReducesDecisionQueries: an enforcer over a
// resilience.FrontCache asks the engine once per key and TTL.
func TestEnforceCacheReducesDecisionQueries(t *testing.T) {
	now := time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	engine := newEngine(t)
	front := resilience.NewFrontCache(engine, time.Minute, &resilience.Policy{Clock: clock}, 4096)
	enf := NewEnforcer("pep", front,
		WithObligationHandler("log-access", func(policy.FulfilledObligation, *policy.Request) error { return nil }),
		WithClock(clock),
	)
	for i := 0; i < 10; i++ {
		if out := enf.Enforce(context.Background(), doctorReq("read")); !out.Allowed {
			t.Fatalf("iteration %d: %v", i, out.Err)
		}
	}
	if evals, hits := engine.Stats().Evaluations, front.Stats().Hits; evals != 1 || hits != 9 {
		t.Errorf("%d evaluations and %d hits, want 1 + 9", evals, hits)
	}

	// Obligations are re-fulfilled on every (cached) permit.
	now = now.Add(2 * time.Minute)
	enf.Enforce(context.Background(), doctorReq("read"))
	if evals := engine.Stats().Evaluations; evals != 2 {
		t.Errorf("after TTL: %d evaluations, want 2", evals)
	}
	if st := enf.Stats(); st.Permitted != 11 || st.ObligationFailures != 0 {
		t.Errorf("stats = %+v, want 11 permits", st)
	}
}

func TestEnforceCacheStaleWindow(t *testing.T) {
	// A revoked policy keeps permitting from the cache until the
	// revocation reaches it — exactly the staleness trade-off of
	// Section 3.2.
	now := time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	engine := newEngine(t)
	front := resilience.NewFrontCache(engine, time.Hour, &resilience.Policy{Clock: clock}, 4096)
	enf := NewEnforcer("pep", front,
		WithObligationHandler("log-access", func(policy.FulfilledObligation, *policy.Request) error { return nil }),
		WithClock(clock),
	)
	if out := enf.Enforce(context.Background(), doctorReq("read")); !out.Allowed {
		t.Fatal(out.Err)
	}
	// Revoke: replace the policy base with deny-all.
	lockdown := policy.NewPolicySet("lockdown").Combining(policy.DenyUnlessPermit).Build()
	if err := engine.SetRoot(lockdown); err != nil {
		t.Fatal(err)
	}
	if out := enf.Enforce(context.Background(), doctorReq("read")); !out.Allowed {
		t.Error("stale cached permit expected inside TTL (the modelled risk)")
	}
	// The lockdown pins no resource, so its invalidation retires every
	// cached decision.
	front.InvalidateChange(nil, lockdown)
	if out := enf.Enforce(context.Background(), doctorReq("read")); out.Allowed {
		t.Error("after invalidation the revocation must take effect")
	}
}

func TestGuardAgentModel(t *testing.T) {
	enf := NewEnforcer("agent", newEngine(t),
		WithObligationHandler("log-access", func(policy.FulfilledObligation, *policy.Request) error { return nil }),
		WithObligationHandler("alert", func(policy.FulfilledObligation, *policy.Request) error { return nil }),
	)
	guard := NewGuard(enf)
	ran := false
	if err := guard.Do(context.Background(), doctorReq("read"), func() error { ran = true; return nil }); err != nil {
		t.Fatalf("guard: %v", err)
	}
	if !ran {
		t.Error("protected operation did not run")
	}
	ran = false
	if err := guard.Do(context.Background(), doctorReq("write"), func() error { ran = true; return nil }); err == nil {
		t.Error("guard must refuse denied requests")
	}
	if ran {
		t.Error("protected operation ran despite deny")
	}
	// Errors from the operation itself propagate.
	opErr := errors.New("disk full")
	if err := guard.Do(context.Background(), doctorReq("read"), func() error { return opErr }); !errors.Is(err, opErr) {
		t.Errorf("want op error, got %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	enf := NewEnforcer("pep", newEngine(t),
		WithObligationHandler("log-access", func(policy.FulfilledObligation, *policy.Request) error { return nil }),
		WithObligationHandler("alert", func(policy.FulfilledObligation, *policy.Request) error { return nil }),
	)
	enf.Enforce(context.Background(), doctorReq("read"))  // permit
	enf.Enforce(context.Background(), doctorReq("write")) // deny
	st := enf.Stats()
	if st.Requests != 2 || st.Permitted != 1 || st.Denied != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestConcurrentEnforcement(t *testing.T) {
	front := resilience.NewFrontCache(newEngine(t), time.Minute, &resilience.Policy{}, 128)
	enf := NewEnforcer("pep", front,
		WithObligationHandler("log-access", func(policy.FulfilledObligation, *policy.Request) error { return nil }),
		WithObligationHandler("alert", func(policy.FulfilledObligation, *policy.Request) error { return nil }),
	)
	const workers = 8
	const perWorker = 50
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < perWorker; i++ {
				action := "read"
				if i%2 == 1 {
					action = "write"
				}
				req := policy.NewAccessRequest(fmt.Sprintf("user-%d", w), "rec-1", action).
					Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String("doctor"))
				enf.Enforce(context.Background(), req)
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	st := enf.Stats()
	if st.Requests != workers*perWorker {
		t.Errorf("requests = %d, want %d", st.Requests, workers*perWorker)
	}
	if st.Permitted+st.Denied != st.Requests {
		t.Errorf("outcome accounting inconsistent: %+v", st)
	}
}
