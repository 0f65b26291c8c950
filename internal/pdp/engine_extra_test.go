package pdp

import (
	"context"
	"testing"
	"time"

	"repro/internal/policy"
)

// rolePolicy permits read when the subject carries the doctor role, which
// only a resolver can supply in these tests (requests omit it).
func rolePolicy() *policy.PolicySet {
	return policy.NewPolicySet("base").Combining(policy.DenyUnlessPermit).
		Add(policy.NewPolicy("doctors").
			Combining(policy.DenyUnlessPermit).
			Rule(policy.Permit("doctors-read").
				When(policy.MatchRole("doctor"), policy.MatchActionID("read")).
				Build()).
			Build()).
		Build()
}

func roleResolver(role string) policy.Resolver {
	return policy.ResolverFunc(func(_ context.Context, _ *policy.Request, cat policy.Category, name string) (policy.Bag, error) {
		if cat == policy.CategorySubject && name == policy.AttrSubjectRole {
			return policy.Singleton(policy.String(role)), nil
		}
		return nil, nil
	})
}

func TestDecideAtWithOverridesResolver(t *testing.T) {
	// The engine's configured resolver says "visitor"; a per-call resolver
	// (the multi-domain cross-domain retrieval path) says "doctor" and must
	// win for that call only.
	e := New("pdp", WithResolver(roleResolver("visitor")))
	if err := e.SetRoot(rolePolicy()); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	req := policy.NewAccessRequest("alice", "rec-1", "read")

	if got := e.DecideAt(context.Background(), req, at); got.Decision != policy.DecisionDeny {
		t.Fatalf("configured resolver: got %v, want Deny", got.Decision)
	}
	if got := e.DecideAtWith(context.Background(), req, at, roleResolver("doctor")); got.Decision != policy.DecisionPermit {
		t.Fatalf("per-call resolver: got %v, want Permit", got.Decision)
	}
	// Falling back to nil must use the configured resolver again.
	if got := e.DecideAtWith(context.Background(), req, at, nil); got.Decision != policy.DecisionDeny {
		t.Fatalf("nil per-call resolver: got %v, want Deny", got.Decision)
	}
}

func TestDecideAtWithBypassesCache(t *testing.T) {
	// Per-call resolvers see per-call state; their decisions must neither
	// read nor populate the shared decision cache.
	e := New("pdp", WithDecisionCache(time.Minute, 0))
	if err := e.SetRoot(rolePolicy()); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	req := policy.NewAccessRequest("alice", "rec-1", "read")

	if got := e.DecideAtWith(context.Background(), req, at, roleResolver("doctor")); got.Decision != policy.DecisionPermit {
		t.Fatalf("got %v, want Permit", got.Decision)
	}
	// A cached permit here would be a cross-context information leak.
	if got := e.DecideAt(context.Background(), req, at.Add(time.Second)); got.Decision != policy.DecisionDeny {
		t.Fatalf("cache leaked a per-call decision: got %v, want Deny", got.Decision)
	}
	if hits := e.Stats().CacheHits; hits != 0 {
		t.Errorf("cache hits = %d, want 0", hits)
	}
}

func TestDecideScatterAtWithResolverBypassesCache(t *testing.T) {
	// The scatter path follows the DecideAtWith rule: a caller-supplied
	// resolver decides every selected position, and the shared decision
	// cache is neither read nor filled.
	e := New("pdp", WithResolver(roleResolver("visitor")), WithDecisionCache(time.Minute, 0))
	if err := e.SetRoot(rolePolicy()); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	reqs := []*policy.Request{
		policy.NewAccessRequest("alice", "rec-1", "read"),
		policy.NewAccessRequest("bob", "rec-2", "read"),
		policy.NewAccessRequest("carol", "rec-3", "read"),
	}
	// Warm the cache with alice's Deny under the engine's own resolver.
	if got := e.DecideAt(context.Background(), reqs[0], at); got.Decision != policy.DecisionDeny {
		t.Fatalf("warm-up = %v, want Deny", got.Decision)
	}

	out := make([]policy.Result, len(reqs))
	e.DecideScatterAt(context.Background(), reqs, []int{0, 2}, at, roleResolver("doctor"), out)
	for _, p := range []int{0, 2} {
		if out[p].Decision != policy.DecisionPermit {
			t.Fatalf("position %d = %v, want Permit from the per-call resolver (a cached Deny was read)", p, out[p].Decision)
		}
	}
	if out[1].Decision != 0 || out[1].Err != nil {
		t.Fatalf("unselected position written: %+v", out[1])
	}
	st := e.Stats()
	if st.CacheHits != 0 || st.CacheEntries != 1 || st.Evaluations != 3 {
		t.Fatalf("stats = %+v, want 0 hits, the warm-up's 1 entry, 3 evaluations", st)
	}
	// A cached permit here would be a cross-context information leak.
	if got := e.DecideAt(context.Background(), reqs[2], at); got.Decision != policy.DecisionDeny {
		t.Fatalf("cache leaked a per-call decision: got %v, want Deny", got.Decision)
	}
}

func TestDecideAtWithNoPolicy(t *testing.T) {
	e := New("empty")
	res := e.DecideAtWith(context.Background(), policy.NewRequest(), time.Now(), nil)
	if res.Decision != policy.DecisionIndeterminate || res.Err == nil {
		t.Errorf("no-policy engine: got %+v, want Indeterminate with error", res)
	}
}

func TestRootAndName(t *testing.T) {
	e := New("pdp-7")
	if e.Name() != "pdp-7" {
		t.Errorf("Name = %q", e.Name())
	}
	if e.Root() != nil {
		t.Error("fresh engine must have nil root")
	}
	root := rolePolicy()
	if err := e.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	if e.Root() != policy.Evaluable(root) {
		t.Error("Root() does not return the installed base")
	}
}

func TestFlushCacheForcesReevaluation(t *testing.T) {
	e := New("pdp", WithDecisionCache(time.Hour, 0))
	if err := e.SetRoot(rolePolicy()); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	req := policy.NewAccessRequest("alice", "rec-1", "read").
		Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String("doctor"))

	e.DecideAt(context.Background(), req, at)
	e.DecideAt(context.Background(), req, at.Add(time.Second))
	if st := e.Stats(); st.CacheHits != 1 || st.Evaluations != 1 {
		t.Fatalf("before flush: %+v", st)
	}
	e.FlushCache()
	e.DecideAt(context.Background(), req, at.Add(2*time.Second))
	if st := e.Stats(); st.CacheHits != 1 || st.Evaluations != 2 {
		t.Errorf("after flush: %+v, want a fresh evaluation", st)
	}
}
