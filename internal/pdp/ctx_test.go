package pdp

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/policy"
)

// Context semantics of the engine itself: expiry surfaces as Indeterminate
// with the cause, mid-evaluation resolver fetches abort, and a decision
// poisoned by an expired context never enters the decision cache.

func ctxTestRoot(t *testing.T) policy.Evaluable {
	t.Helper()
	return policy.NewPolicySet("root").Combining(policy.DenyOverrides).
		Add(policy.NewPolicy("p").Combining(policy.FirstApplicable).
			Rule(policy.Permit("ok").When(policy.MatchRole("doctor")).Build()).
			Rule(policy.Deny("no").Build()).
			Build()).
		Build()
}

func TestEngineExpiredContextIndeterminate(t *testing.T) {
	e := New("pdp")
	if err := e.SetRoot(ctxTestRoot(t)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := policy.Decide(ctx, e, policy.NewAccessRequest("alice", "r", "read"), time.Now())
	if res.Decision != policy.DecisionIndeterminate {
		t.Fatalf("decision = %s, want Indeterminate", res.Decision)
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled carried as the status message", res.Err)
	}
}

func TestEngineCancelAbortsBlockedResolver(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	blocking := policy.ResolverFunc(func(ctx context.Context, _ *policy.Request, _ policy.Category, _ string) (policy.Bag, error) {
		select {
		case <-release:
			return policy.Singleton(policy.String("doctor")), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	e := New("pdp", WithResolver(blocking))
	if err := e.SetRoot(ctxTestRoot(t)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := policy.Decide(ctx, e, policy.NewAccessRequest("alice", "r", "read"), time.Now())
	if time.Since(start) > 2*time.Second {
		t.Fatal("decision blocked past the deadline on a stuck information point")
	}
	if res.Decision != policy.DecisionIndeterminate || !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("got %s (%v), want deadline Indeterminate", res.Decision, res.Err)
	}
}

// TestDeadlinePoisonedDecisionNotCached: the Indeterminate produced by an
// expired context must not be served from the front decision cache to the
// next caller, who has time to earn a real decision.
func TestDeadlinePoisonedDecisionNotCached(t *testing.T) {
	calls := 0
	resolver := policy.ResolverFunc(func(ctx context.Context, _ *policy.Request, _ policy.Category, _ string) (policy.Bag, error) {
		calls++
		if calls == 1 {
			<-ctx.Done() // first fetch rides into the deadline
			return nil, ctx.Err()
		}
		return policy.Singleton(policy.String("doctor")), nil
	})
	e := New("pdp", WithResolver(resolver))
	if err := e.SetRoot(ctxTestRoot(t)); err != nil {
		t.Fatal(err)
	}
	front := frontOver(e, time.Hour, 8192, nil)
	req := policy.NewAccessRequest("alice", "r", "read")
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	res := policy.Decide(ctx, front, req, at)
	cancel()
	if res.Decision != policy.DecisionIndeterminate {
		t.Fatalf("poisoned decision = %s, want Indeterminate", res.Decision)
	}

	res = policy.Decide(context.Background(), front, req, at)
	if res.Decision != policy.DecisionPermit {
		t.Fatalf("fresh decision = %s (%v), want Permit — the poisoned result leaked from the cache", res.Decision, res.Err)
	}
	if st := front.Stats(); st.Hits != 0 {
		t.Fatalf("cache hits = %d; the poisoned entry was served", st.Hits)
	}
	if res := policy.Decide(context.Background(), front, req, at); res.Decision != policy.DecisionPermit || front.Stats().Hits != 1 {
		t.Fatalf("third decision = %s with %d hits, want the Permit from the cache", res.Decision, front.Stats().Hits)
	}
}

// TestBatchCancelledMidwayShedsTail: a batch whose context dies after some
// positions evaluated keeps those verdicts and sheds the rest closed.
func TestBatchCancelledMidwayShedsTail(t *testing.T) {
	evaluated := 0
	ctx, cancel := context.WithCancel(context.Background())
	resolver := policy.ResolverFunc(func(_ context.Context, _ *policy.Request, _ policy.Category, _ string) (policy.Bag, error) {
		evaluated++
		if evaluated == 3 {
			cancel() // the caller dies mid-batch
		}
		return policy.Singleton(policy.String("doctor")), nil
	})
	e := New("pdp", WithResolver(resolver))
	if err := e.SetRoot(ctxTestRoot(t)); err != nil {
		t.Fatal(err)
	}
	reqs := make([]*policy.Request, 8)
	for i := range reqs {
		// Distinct subjects so the per-evaluation memo cannot absorb the
		// resolver calls.
		reqs[i] = policy.NewAccessRequest("user-"+string(rune('a'+i)), "r", "read")
	}
	results := policy.DecideBatch(ctx, e, reqs, time.Now())
	permits, shed := 0, 0
	for _, res := range results {
		switch {
		case res.Decision == policy.DecisionPermit:
			permits++
		case errors.Is(res.Err, context.Canceled):
			shed++
		}
	}
	if permits == 0 || shed == 0 {
		t.Fatalf("permits=%d shed=%d; want finished positions kept and the tail shed", permits, shed)
	}
	if permits+shed != len(reqs) {
		t.Fatalf("permits=%d shed=%d of %d positions", permits, shed, len(reqs))
	}
}
