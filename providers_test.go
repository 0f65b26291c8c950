package repro

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ha"
	"repro/internal/pdp"
	"repro/internal/pip"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/wire"
	"repro/internal/workload"
)

// agreeBase is a seeded policy base for TestProvidersAgree: one policy per
// resource (role-gated reads) under deny-overrides, plus clearance vetoes
// whose condition makes a subject missing from the directory Indeterminate.
func agreeBase(seed int64) (policy.Evaluable, *pip.Directory, []*policy.Request) {
	const users, resources, roles = 24, 40, 4
	rng := rand.New(rand.NewSource(seed))
	dir := pip.NewDirectory("idp")
	for u := 0; u < users; u++ {
		dir.AddSubject(pip.Subject{ID: workload.UserID(u), Roles: []string{workload.RoleID(u % roles)}, Clearance: rng.Int63n(4)})
	}
	base := policy.NewPolicySet("root").Combining(policy.DenyOverrides)
	for i := 0; i < resources; i++ {
		base.Add(workload.ResourcePolicy(i, roles))
	}
	base.Add(policy.NewPolicy("veto").Combining(policy.DenyOverrides).
		Rule(policy.Deny("low-clearance").
			If(policy.Call(policy.FnLessThan, policy.SubjectAttr(policy.AttrClearance), policy.Lit(policy.Integer(1)))).
			Build()).
		Build())
	reqs := make([]*policy.Request, 64)
	for i := range reqs {
		// One subject in seven is unknown to the directory, and every other
		// request names a resource the subject's role owns.
		user, res := rng.Intn(users+users/6), rng.Intn(resources+4)
		if rng.Intn(2) == 0 {
			res = res/roles*roles + user%roles
		}
		action := "read"
		if rng.Intn(4) == 0 {
			action = "write"
		}
		reqs[i] = policy.NewAccessRequest(workload.UserID(user), workload.ResourceID(res), action)
	}
	return base.Build(), dir, reqs
}

// uncompilable wraps root's children under a root target the compiler
// cannot lower (a string-starts-with match every resource satisfies), so
// an engine over it decides through the interpreter.
func uncompilable(root policy.Evaluable) policy.Evaluable {
	set := root.(*policy.PolicySet)
	return policy.NewPolicySet(set.ID).Combining(set.Combining).
		When(policy.Match{Category: policy.CategoryResource, Name: policy.AttrResourceID,
			Function: policy.FnStringStartsWith, Value: policy.String("")}).
		Add(set.Children...).
		Build()
}

// TestProvidersAgree checks every decision provider against one reference
// — a plain uncached engine — through the one decision interface: each
// request singly, the whole batch in one call, and a random selection of
// positions into a result buffer pre-filled with a sentinel. Decision and
// By must equal the reference's, and unselected positions must keep the
// sentinel. A failure names its seed.
func TestProvidersAgree(t *testing.T) {
	at := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		root, dir, reqs := agreeBase(seed)
		engine := func(name string, root policy.Evaluable, opts ...pdp.Option) *pdp.Engine {
			e := pdp.New(name, append([]pdp.Option{pdp.WithResolver(dir)}, opts...)...)
			if err := e.SetRoot(root); err != nil {
				t.Fatal(err)
			}
			return e
		}
		// ensemble builds n cached replicas.
		ensemble := func(s ha.Strategy, n int) *ha.Ensemble {
			replicas := make([]*ha.Failable, n)
			for i := range replicas {
				name := fmt.Sprintf("r%d", i)
				replicas[i] = ha.NewFailable(name, engine(name, root, pdp.WithDecisionCache(time.Minute, 0)))
			}
			return ha.NewEnsemble("ens", s, replicas...)
		}
		router := func(shards int) *cluster.Router {
			r, err := cluster.New("router", cluster.Config{Shards: shards, Replicas: 2,
				EngineOptions: []pdp.Option{pdp.WithResolver(dir), pdp.WithDecisionCache(time.Minute, 0)}})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.SetRoot(root); err != nil {
				t.Fatal(err)
			}
			return r
		}
		client := func(h func(policy.Decider) wire.Handler) *pdp.Client {
			srv := httptest.NewServer(wire.HTTPHandler(h(router(4))))
			t.Cleanup(srv.Close)
			return pdp.NewClient(srv.URL, "pep", "pdpd")
		}

		ref := engine("ref", root)
		want := policy.DecideBatch(ctx, ref, reqs, at)

		for _, row := range []struct {
			name string
			d    policy.Decider
		}{
			{"engine/cached", engine("cached", root, pdp.WithDecisionCache(time.Minute, 0))},
			{"engine/uncached", engine("uncached", root)},
			{"engine/interpreter", engine("interp", uncompilable(root))},
			{"ensemble/failover", ensemble(ha.Failover, 2)},
			{"ensemble/quorum", ensemble(ha.Quorum, 3)},
			{"router/1-shard", router(1)},
			{"router/4-shard", router(4)},
			{"stale/4-shard", resilience.NewStaleCache(router(4), &resilience.Policy{StaleGrace: time.Minute})},
			{"client/decide", client(pdp.Handler)},
			{"client/decide-batch", client(pdp.BatchHandler)},
		} {
			check := func(how string, i int, got policy.Result) {
				t.Helper()
				if got.Decision != want[i].Decision || got.By != want[i].By {
					t.Fatalf("seed %d, %s, %s, request %d (%s): %v by %q (%v), reference %v by %q (%v)",
						seed, row.name, how, i, reqs[i], got.Decision, got.By, got.Err, want[i].Decision, want[i].By, want[i].Err)
				}
			}
			for i, req := range reqs {
				check("single", i, policy.Decide(ctx, row.d, req, at))
			}
			for i, got := range policy.DecideBatch(ctx, row.d, reqs, at) {
				check("batch", i, got)
			}
			rng := rand.New(rand.NewSource(seed))
			positions := rng.Perm(len(reqs))[:1+rng.Intn(len(reqs)-1)]
			sentinel := policy.Result{Decision: policy.DecisionNotApplicable, By: "sentinel"}
			out := make([]policy.Result, len(reqs))
			for i := range out {
				out[i] = sentinel
			}
			row.d.DecideScatterAt(ctx, reqs, positions, at, nil, out)
			selected := make(map[int]bool, len(positions))
			for _, p := range positions {
				selected[p] = true
				check("scatter", p, out[p])
			}
			for i, got := range out {
				if !selected[i] && (got.Decision != sentinel.Decision || got.By != sentinel.By) {
					t.Fatalf("seed %d, %s, scatter of %d positions overwrote unselected position %d: %+v", seed, row.name, len(positions), i, got)
				}
			}
		}
	}
}
