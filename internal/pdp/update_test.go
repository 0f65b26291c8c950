package pdp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/resilience"
)

// churnPolicy builds version v of the policy administering one resource:
// even versions permit read only, odd versions permit write only, so a
// stale cached decision is always observably wrong.
func churnPolicy(res string, v int) *policy.Policy {
	allowed := "read"
	if v%2 == 1 {
		allowed = "write"
	}
	return policy.NewPolicy("pol-" + res).
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID(res)).
		Rule(policy.Permit("allow").When(policy.MatchActionID(allowed)).Build()).
		Rule(policy.Deny("default").Build()).
		Build()
}

// catchAllPolicy denies the "purge" action for every resource: a child with
// no resource-id constraint, exercising the full-flush fallback.
func catchAllPolicy(v int) *policy.Policy {
	action := "purge"
	if v%2 == 1 {
		action = "audit"
	}
	return policy.NewPolicy("global-guard").
		Combining(policy.FirstApplicable).
		Rule(policy.Deny("no-" + action).When(policy.MatchActionID(action)).Build()).
		Build()
}

// roamingPolicy administers a different resource each version, exercising
// key moves (delete on the old owner, insert on the new, in a cluster).
func roamingPolicy(v int) *policy.Policy {
	res := fmt.Sprintf("res-%d", v%7)
	return policy.NewPolicy("roaming").
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID(res)).
		Rule(policy.Deny("roam-deny").When(policy.MatchActionID("write")).Build()).
		Build()
}

// modelRoot assembles the reference root from the model state exactly as
// pap.Store.BuildRoot would: children in ID order under deny-overrides.
func modelRoot(model map[string]policy.Evaluable) *policy.PolicySet {
	ids := make([]string, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	b := policy.NewPolicySet("root").Combining(policy.DenyOverrides)
	for _, id := range ids {
		b.Add(model[id])
	}
	return b.Build()
}

// applyFront applies u to e and then retires from front the decisions it
// can change, in the order pdpd's store watchers run: the write reaches
// the engine first, the front cache's invalidation follows.
func applyFront(e *Engine, front *resilience.FrontCache, u Update) error {
	var prev policy.Evaluable
	if set, ok := e.Root().(*policy.PolicySet); ok {
		for _, ch := range set.Children {
			if ch.EntityID() == u.ID {
				prev = ch
			}
		}
	}
	if err := e.ApplyUpdate(u); err != nil {
		return err
	}
	front.InvalidateChange(prev, u.Child)
	return nil
}

// churnRequests spans every administered resource and action, plus an
// unadministered resource.
func churnRequests(resources int) []*policy.Request {
	var reqs []*policy.Request
	for i := 0; i < resources; i++ {
		res := fmt.Sprintf("res-%d", i)
		for _, action := range []string{"read", "write", "purge", "audit"} {
			reqs = append(reqs, policy.NewAccessRequest("alice", res, action))
		}
	}
	reqs = append(reqs, policy.NewAccessRequest("alice", "res-unknown", "read"))
	return reqs
}

// TestApplyUpdateEquivalentToRebuild is the delta-pipeline property test:
// any sequence of Put/Delete deltas applied incrementally yields decisions
// identical to a from-scratch rebuild of the same state — on a plain
// engine and through a front cache over it (the cached variant also
// proves the selective invalidation never serves a stale decision).
func TestApplyUpdateEquivalentToRebuild(t *testing.T) {
	variants := []struct {
		name  string
		front bool
	}{
		{"plain", false},
		{"cached", true},
	}
	const resources = 7
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	reqs := churnRequests(resources)
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				model := make(map[string]policy.Evaluable)
				live := New("live")
				if err := live.SetRoot(modelRoot(model)); err != nil {
					t.Fatal(err)
				}
				var d policy.Decider = live
				apply := live.ApplyUpdate
				if v.front {
					front := frontOver(live, time.Hour, 8192, nil)
					d = front
					apply = func(u Update) error { return applyFront(live, front, u) }
				}
				version := 0
				for op := 0; op < 120; op++ {
					version++
					var u Update
					switch r := rng.Intn(10); {
					case r < 5: // put a per-resource policy
						p := churnPolicy(fmt.Sprintf("res-%d", rng.Intn(resources)), version)
						u = Update{ID: p.ID, Child: p}
					case r < 6: // put the catch-all
						p := catchAllPolicy(version)
						u = Update{ID: p.ID, Child: p}
					case r < 7: // put the roaming policy (keys move)
						p := roamingPolicy(version)
						u = Update{ID: p.ID, Child: p}
					default: // delete something that may or may not exist
						ids := []string{"global-guard", "roaming"}
						for i := 0; i < resources; i++ {
							ids = append(ids, fmt.Sprintf("pol-res-%d", i))
						}
						u = Update{ID: ids[rng.Intn(len(ids))]}
					}
					if u.Child != nil {
						model[u.ID] = u.Child
					} else {
						delete(model, u.ID)
					}
					if err := apply(u); err != nil {
						t.Fatalf("seed %d op %d: ApplyUpdate: %v", seed, op, err)
					}
					if op%20 != 19 {
						continue
					}
					rebuilt := New("rebuilt")
					if err := rebuilt.SetRoot(modelRoot(model)); err != nil {
						t.Fatalf("seed %d op %d: rebuild: %v", seed, op, err)
					}
					for _, req := range reqs {
						got := policy.Decide(context.Background(), d, req, at)
						want := policy.Decide(context.Background(), rebuilt, req, at)
						if got.Decision != want.Decision || got.By != want.By {
							t.Fatalf("seed %d op %d: %s on %s: delta path = %v by %s, rebuild = %v by %s",
								seed, op, req.ActionID(), req.ResourceID(),
								got.Decision, got.By, want.Decision, want.By)
						}
					}
				}
			}
		})
	}
}

// TestApplyUpdatePreservesUnaffectedCache asserts the point of the delta
// path: patching one child and retiring what it changes from the front
// cache invalidates only that child's resource keys, and every other
// cached decision keeps serving.
func TestApplyUpdatePreservesUnaffectedCache(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	e := New("e")
	if err := e.SetRoot(resourcePolicies(5)); err != nil {
		t.Fatal(err)
	}
	front := frontOver(e, time.Hour, 8192, nil)
	var warm []*policy.Request
	for i := 0; i < 5; i++ {
		warm = append(warm, policy.NewAccessRequest("u", fmt.Sprintf("res-%d", i), "read"))
	}
	for _, req := range warm {
		if got := policy.Decide(context.Background(), front, req, at); got.Decision != policy.DecisionPermit {
			t.Fatalf("warm-up %s: %v", req.ResourceID(), got.Decision)
		}
	}
	before, beforeHits := e.Stats(), front.Stats().Hits

	// Flip res-0 to write-only: read becomes deny.
	if err := applyFront(e, front, Update{ID: "pol-res-0", Child: churnPolicy("res-0", 1)}); err != nil {
		t.Fatal(err)
	}
	if st, fst := e.Stats(), front.Stats(); st.Updates != 1 || fst.Invalidations != 1 {
		t.Fatalf("engine %+v, front %+v: want 1 update invalidating 1 entry", st, fst)
	}

	for _, req := range warm[1:] {
		if got := policy.Decide(context.Background(), front, req, at); got.Decision != policy.DecisionPermit {
			t.Fatalf("unaffected %s: %v", req.ResourceID(), got.Decision)
		}
	}
	if got := policy.Decide(context.Background(), front, warm[0], at); got.Decision != policy.DecisionDeny {
		t.Fatalf("res-0 read after update = %v, want deny", got.Decision)
	}
	after, afterHits := e.Stats(), front.Stats().Hits
	if hits := afterHits - beforeHits; hits != 4 {
		t.Errorf("cache hits across update = %d, want 4 (untouched resources stay warm)", hits)
	}
	if evals := after.Evaluations - before.Evaluations; evals != 1 {
		t.Errorf("evaluations across update = %d, want 1 (only the changed resource)", evals)
	}
}

// TestApplyUpdateCatchAllFlushes asserts the documented fallback: a child
// that does not pin resource-id can affect any decision, so the whole
// front cache is dropped.
func TestApplyUpdateCatchAllFlushes(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	e := New("e")
	if err := e.SetRoot(resourcePolicies(3)); err != nil {
		t.Fatal(err)
	}
	front := frontOver(e, time.Hour, 8192, nil)
	var warm []*policy.Request
	for i := 0; i < 3; i++ {
		warm = append(warm, policy.NewAccessRequest("u", fmt.Sprintf("res-%d", i), "read"))
	}
	for _, req := range warm {
		policy.Decide(context.Background(), front, req, at)
	}
	before, beforeHits := e.Stats(), front.Stats().Hits
	if err := applyFront(e, front, Update{ID: "global-guard", Child: catchAllPolicy(0)}); err != nil {
		t.Fatal(err)
	}
	for _, req := range warm {
		policy.Decide(context.Background(), front, req, at)
	}
	after, afterHits := e.Stats(), front.Stats().Hits
	if hits := afterHits - beforeHits; hits != 0 {
		t.Errorf("cache hits after catch-all update = %d, want 0 (full flush)", hits)
	}
	if evals := after.Evaluations - before.Evaluations; evals != 3 {
		t.Errorf("evaluations after catch-all update = %d, want 3", evals)
	}
}

// TestConcurrentDecideAndApplyUpdate races decisions through a front cache
// against delta updates (run with -race) and then verifies no stale
// decision survived in the cache: once the writers stop, every decision
// must match a fresh engine built from the final policy state. The cache's
// generation guard makes this hold — an evaluation that crossed an update
// must not write its result back into the freshly invalidated cache.
func TestConcurrentDecideAndApplyUpdate(t *testing.T) {
	const resources = 8
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	e := New("e")
	front := frontOver(e, time.Hour, 8192, nil)
	model := make(map[string]policy.Evaluable)
	for i := 0; i < resources; i++ {
		p := churnPolicy(fmt.Sprintf("res-%d", i), 0)
		model[p.ID] = p
	}
	if err := e.SetRoot(modelRoot(model)); err != nil {
		t.Fatal(err)
	}
	reqs := churnRequests(resources)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					policy.Decide(context.Background(), front, reqs[i%len(reqs)], at)
				}
			}
		}()
	}
	finalVersion := make([]int, resources)
	for v := 1; v <= 200; v++ {
		res := (v * 3) % resources
		finalVersion[res] = v
		p := churnPolicy(fmt.Sprintf("res-%d", res), v)
		if err := applyFront(e, front, Update{ID: p.ID, Child: p}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	for i := 0; i < resources; i++ {
		model[fmt.Sprintf("pol-res-%d", i)] = churnPolicy(fmt.Sprintf("res-%d", i), finalVersion[i])
	}
	ref := New("ref")
	if err := ref.SetRoot(modelRoot(model)); err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		got := policy.Decide(context.Background(), front, req, at)
		want := policy.Decide(context.Background(), ref, req, at)
		if got.Decision != want.Decision {
			t.Fatalf("%s on %s after churn = %v, want %v (stale cache entry?)",
				req.ActionID(), req.ResourceID(), got.Decision, want.Decision)
		}
	}
}

func TestApplyUpdateErrors(t *testing.T) {
	e := New("e")
	p := churnPolicy("res-0", 0)
	if err := e.ApplyUpdate(Update{ID: p.ID, Child: p}); !errors.Is(err, ErrNotIncremental) {
		t.Errorf("no root: err = %v, want ErrNotIncremental", err)
	}
	if err := e.SetRoot(churnPolicy("res-1", 0)); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyUpdate(Update{ID: p.ID, Child: p}); !errors.Is(err, ErrNotIncremental) {
		t.Errorf("non-set root: err = %v, want ErrNotIncremental", err)
	}
	if err := e.SetRoot(resourcePolicies(2)); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyUpdate(Update{}); err == nil {
		t.Error("empty ID must be rejected")
	}
	if err := e.ApplyUpdate(Update{ID: "other", Child: p}); err == nil {
		t.Error("ID/child mismatch must be rejected")
	}
	if err := e.ApplyUpdate(Update{ID: "bad", Child: &policy.Policy{ID: "bad"}}); err == nil {
		t.Error("invalid child must be rejected")
	}
	if err := e.ApplyUpdate(Update{ID: "absent"}); err != nil {
		t.Errorf("deleting an absent child = %v, want no-op", err)
	}
	if got := e.Stats().Updates; got != 0 {
		t.Errorf("failed updates must not count, got %d", got)
	}
}
