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

	if got := policy.Decide(context.Background(), e, req, at); got.Decision != policy.DecisionDeny {
		t.Fatalf("configured resolver: got %v, want Deny", got.Decision)
	}
	if got := decideWith(context.Background(), e, req, at, roleResolver("doctor")); got.Decision != policy.DecisionPermit {
		t.Fatalf("per-call resolver: got %v, want Permit", got.Decision)
	}
	// Falling back to nil must use the configured resolver again.
	if got := decideWith(context.Background(), e, req, at, nil); got.Decision != policy.DecisionDeny {
		t.Fatalf("nil per-call resolver: got %v, want Deny", got.Decision)
	}
}

func TestDecideAtWithBypassesCache(t *testing.T) {
	// Per-call resolvers see per-call state; their decisions must neither
	// read nor populate the front decision cache.
	e := New("pdp")
	if err := e.SetRoot(rolePolicy()); err != nil {
		t.Fatal(err)
	}
	front := frontOver(e, time.Minute, 8192, nil)
	at := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	req := policy.NewAccessRequest("alice", "rec-1", "read")

	if got := decideWith(context.Background(), front, req, at, roleResolver("doctor")); got.Decision != policy.DecisionPermit {
		t.Fatalf("got %v, want Permit", got.Decision)
	}
	// A cached permit here would be a cross-context information leak.
	if got := policy.Decide(context.Background(), front, req, at.Add(time.Second)); got.Decision != policy.DecisionDeny {
		t.Fatalf("cache leaked a per-call decision: got %v, want Deny", got.Decision)
	}
	if hits := front.Stats().Hits; hits != 0 {
		t.Errorf("cache hits = %d, want 0", hits)
	}
}

func TestDecideScatterAtWithResolverBypassesCache(t *testing.T) {
	// The scatter path follows the DecideAtWith rule: a caller-supplied
	// resolver decides every selected position, and the front decision
	// cache is neither read nor filled.
	e := New("pdp", WithResolver(roleResolver("visitor")))
	if err := e.SetRoot(rolePolicy()); err != nil {
		t.Fatal(err)
	}
	front := frontOver(e, time.Minute, 8192, nil)
	at := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	reqs := []*policy.Request{
		policy.NewAccessRequest("alice", "rec-1", "read"),
		policy.NewAccessRequest("bob", "rec-2", "read"),
		policy.NewAccessRequest("carol", "rec-3", "read"),
	}
	// Warm the cache with alice's Deny under the engine's own resolver.
	if got := policy.Decide(context.Background(), front, reqs[0], at); got.Decision != policy.DecisionDeny {
		t.Fatalf("warm-up = %v, want Deny", got.Decision)
	}

	out := make([]policy.Result, len(reqs))
	front.DecideScatterAt(context.Background(), reqs, []int{0, 2}, at, roleResolver("doctor"), out)
	for _, p := range []int{0, 2} {
		if out[p].Decision != policy.DecisionPermit {
			t.Fatalf("position %d = %v, want Permit from the per-call resolver (a cached Deny was read)", p, out[p].Decision)
		}
	}
	if out[1].Decision != 0 || out[1].Err != nil {
		t.Fatalf("unselected position written: %+v", out[1])
	}
	if st, fst := e.Stats(), front.Stats(); fst.Hits != 0 || fst.Entries != 1 || st.Evaluations != 3 {
		t.Fatalf("engine %+v, front %+v: want 0 hits, the warm-up's 1 entry, 3 evaluations", st, fst)
	}
	// A cached permit here would be a cross-context information leak.
	if got := policy.Decide(context.Background(), front, reqs[2], at); got.Decision != policy.DecisionDeny {
		t.Fatalf("cache leaked a per-call decision: got %v, want Deny", got.Decision)
	}
}

func TestDecideAtWithNoPolicy(t *testing.T) {
	e := New("empty")
	res := decideWith(context.Background(), e, policy.NewRequest(), time.Now(), nil)
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

// decideWith decides one request through d with a per-call resolver.
func decideWith(ctx context.Context, d policy.Decider, req *policy.Request, at time.Time, resolver policy.Resolver) policy.Result {
	out := make([]policy.Result, 1)
	d.DecideScatterAt(ctx, []*policy.Request{req}, nil, at, resolver, out)
	return out[0]
}
