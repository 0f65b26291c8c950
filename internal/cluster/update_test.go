package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/ha"
	"repro/internal/pdp"
	"repro/internal/policy"
)

// updPolicy builds version v of the policy administering one resource:
// even versions permit read only, odd versions permit write only.
func updPolicy(res string, v int) *policy.Policy {
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

// updCatchAll denies one action for every resource (no resource-id pin).
func updCatchAll(v int) *policy.Policy {
	action := "purge"
	if v%2 == 1 {
		action = "audit"
	}
	return policy.NewPolicy("global-guard").
		Combining(policy.FirstApplicable).
		Rule(policy.Deny("no-" + action).When(policy.MatchActionID(action)).Build()).
		Build()
}

// updRoaming targets a different resource each version: its keys move
// between shards, decomposing into delete-on-old-owner/insert-on-new.
func updRoaming(v int) *policy.Policy {
	return policy.NewPolicy("roaming").
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID(fmt.Sprintf("res-%d", v%9))).
		Rule(policy.Deny("roam-deny").When(policy.MatchActionID("write")).Build()).
		Build()
}

// updModelRoot assembles the reference root in ID order, BuildRoot-style.
func updModelRoot(model map[string]policy.Evaluable) *policy.PolicySet {
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

func updRequests(resources int) []*policy.Request {
	var reqs []*policy.Request
	for i := 0; i < resources; i++ {
		res := fmt.Sprintf("res-%d", i)
		for _, action := range []string{"read", "write", "purge", "audit"} {
			reqs = append(reqs, policy.NewAccessRequest("alice", res, action))
		}
	}
	return append(reqs, policy.NewAccessRequest("alice", "res-unknown", "read"))
}

// TestRouterApplyUpdateEquivalence is the cluster half of the delta
// property test: any sequence of Put/Delete deltas routed through
// Router.ApplyUpdate yields decisions identical to a single fresh engine
// evaluating the rebuilt full base — shard routing, subset patching and
// selective invalidation included.
func TestRouterApplyUpdateEquivalence(t *testing.T) {
	const resources = 9
	reqs := updRequests(resources)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"4-shard-cached", Config{Shards: 4, EngineOptions: []pdp.Option{pdp.WithDecisionCache(time.Hour, 0)}}},
		{"3-shard-2-replica", Config{Shards: 3, Replicas: 2, Strategy: ha.Failover}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				rng := rand.New(rand.NewSource(seed))
				model := make(map[string]policy.Evaluable)
				router, err := New("c", tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := router.SetRoot(updModelRoot(model)); err != nil {
					t.Fatal(err)
				}
				version := 0
				for op := 0; op < 80; op++ {
					version++
					var u pdp.Update
					switch r := rng.Intn(10); {
					case r < 5:
						p := updPolicy(fmt.Sprintf("res-%d", rng.Intn(resources)), version)
						u = pdp.Update{ID: p.ID, Child: p}
					case r < 6:
						p := updCatchAll(version)
						u = pdp.Update{ID: p.ID, Child: p}
					case r < 7:
						p := updRoaming(version)
						u = pdp.Update{ID: p.ID, Child: p}
					default:
						ids := []string{"global-guard", "roaming"}
						for i := 0; i < resources; i++ {
							ids = append(ids, fmt.Sprintf("pol-res-%d", i))
						}
						u = pdp.Update{ID: ids[rng.Intn(len(ids))]}
					}
					if u.Child != nil {
						model[u.ID] = u.Child
					} else {
						delete(model, u.ID)
					}
					if err := router.ApplyUpdate(u); err != nil {
						t.Fatalf("seed %d op %d: ApplyUpdate: %v", seed, op, err)
					}
					if op%16 != 15 {
						continue
					}
					rebuilt := pdp.New("rebuilt")
					if err := rebuilt.SetRoot(updModelRoot(model)); err != nil {
						t.Fatalf("seed %d op %d: rebuild: %v", seed, op, err)
					}
					for _, req := range reqs {
						got := router.DecideAt(context.Background(), req, testEpoch)
						want := rebuilt.DecideAt(context.Background(), req, testEpoch)
						if got.Decision != want.Decision || got.By != want.By {
							t.Fatalf("seed %d op %d: %s on %s: cluster delta = %v by %s, rebuild = %v by %s",
								seed, op, req.ActionID(), req.ResourceID(),
								got.Decision, got.By, want.Decision, want.By)
						}
					}
				}
			}
		})
	}
}

// TestRouterApplyUpdateKeepsOtherShardsWarm asserts the routed delta's
// locality: one changed resource touches one shard group, every other
// shard's decision cache keeps serving hits, and even the touched shard
// only recomputes the changed resource.
func TestRouterApplyUpdateKeepsOtherShardsWarm(t *testing.T) {
	const resources = 50
	router, err := New("c", Config{Shards: 4, EngineOptions: []pdp.Option{pdp.WithDecisionCache(time.Hour, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string]policy.Evaluable, resources)
	for i := 0; i < resources; i++ {
		p := updPolicy(fmt.Sprintf("res-%d", i), 0)
		model[p.ID] = p
	}
	if err := router.SetRoot(updModelRoot(model)); err != nil {
		t.Fatal(err)
	}
	var warm []*policy.Request
	for i := 0; i < resources; i++ {
		warm = append(warm, policy.NewAccessRequest("u", fmt.Sprintf("res-%d", i), "read"))
	}
	for _, req := range warm {
		if got := router.DecideAt(context.Background(), req, testEpoch); got.Decision != policy.DecisionPermit {
			t.Fatalf("warm-up %s: %v", req.ResourceID(), got.Decision)
		}
	}
	before := router.EngineStats()

	if err := router.ApplyUpdate(pdp.Update{ID: "pol-res-0", Child: updPolicy("res-0", 1)}); err != nil {
		t.Fatal(err)
	}
	st := router.Stats()
	if st.Updates != 1 || st.UpdateShardsTouched != 1 {
		t.Fatalf("router stats = %+v, want 1 update touching 1 shard", st)
	}

	for _, req := range warm[1:] {
		if got := router.DecideAt(context.Background(), req, testEpoch); got.Decision != policy.DecisionPermit {
			t.Fatalf("unaffected %s: %v", req.ResourceID(), got.Decision)
		}
	}
	if got := router.DecideAt(context.Background(), warm[0], testEpoch); got.Decision != policy.DecisionDeny {
		t.Fatalf("res-0 read after update = %v, want deny", got.Decision)
	}
	after := router.EngineStats()
	if hits := after.CacheHits - before.CacheHits; hits != int64(resources-1) {
		t.Errorf("cache hits across update = %d, want %d (all untouched resources warm)", hits, resources-1)
	}
	if evals := after.Evaluations - before.Evaluations; evals != 1 {
		t.Errorf("evaluations across update = %d, want 1", evals)
	}
	if after.CacheInvalidations-before.CacheInvalidations != 1 {
		t.Errorf("cache invalidations = %d, want 1", after.CacheInvalidations-before.CacheInvalidations)
	}

	// Contrast: the full-rebuild path flushes every cache cluster-wide.
	if err := router.SetRoot(router.Root()); err != nil {
		t.Fatal(err)
	}
	mid := router.EngineStats()
	for _, req := range warm {
		router.DecideAt(context.Background(), req, testEpoch)
	}
	cold := router.EngineStats()
	if hits := cold.CacheHits - mid.CacheHits; hits != 0 {
		t.Errorf("cache hits after full SetRoot = %d, want 0 (full flush)", hits)
	}
}

// TestRouterApplyUpdateUnsortedInsertFallsBack pins the safety fallback:
// inserting a new child into a root whose children are not ID-ordered (a
// caller-built SetRoot base) must take the full repartition path — the
// router's global insert position and each engine's independent subset
// insert could otherwise land at inconsistent positions — and the cluster
// must keep deciding exactly like a single engine over the router's root.
func TestRouterApplyUpdateUnsortedInsertFallsBack(t *testing.T) {
	router, err := New("c", Config{Shards: 2, EngineOptions: []pdp.Option{pdp.WithDecisionCache(time.Hour, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	// Generation order pol-res-0..pol-res-11 is not lexicographic
	// (pol-res-10 < pol-res-2), so this root is unsorted by ID.
	b := policy.NewPolicySet("root").Combining(policy.FirstApplicable)
	for i := 0; i < 12; i++ {
		b.Add(updPolicy(fmt.Sprintf("res-%d", i), 0))
	}
	if err := router.SetRoot(b.Build()); err != nil {
		t.Fatal(err)
	}
	guard := policy.NewPolicy("aaa-guard").
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID("res-5")).
		Rule(policy.Deny("no-read").When(policy.MatchActionID("read")).Build()).
		Build()
	if err := router.ApplyUpdate(pdp.Update{ID: "aaa-guard", Child: guard}); err != nil {
		t.Fatal(err)
	}
	if st := router.Stats(); st.UpdateShardsTouched != 2 {
		t.Errorf("unsorted insert touched %d shards, want all 2 (full repartition fallback)", st.UpdateShardsTouched)
	}
	assertMatchesEngine := func(resources []string) {
		t.Helper()
		ref := pdp.New("ref")
		if err := ref.SetRoot(router.Root()); err != nil {
			t.Fatal(err)
		}
		for _, res := range resources {
			for _, action := range []string{"read", "write"} {
				req := policy.NewAccessRequest("u", res, action)
				got := router.DecideAt(context.Background(), req, testEpoch)
				want := ref.DecideAt(context.Background(), req, testEpoch)
				if got.Decision != want.Decision || got.By != want.By {
					t.Fatalf("%s %s: cluster = %v by %s, engine = %v by %s",
						action, res, got.Decision, got.By, want.Decision, want.By)
				}
			}
		}
	}
	var all []string
	for i := 0; i < 12; i++ {
		all = append(all, fmt.Sprintf("res-%d", i))
	}
	assertMatchesEngine(all)

	// A replace whose keys move to a shard that did not serve the old
	// child triggers an engine-subset insert there, so it must also take
	// the full path on an unsorted root. Find a key owned by the other
	// shard deterministically via the ring.
	oldOwner, _ := router.Owner("res-5")
	moved := ""
	for i := 100; i < 200; i++ {
		cand := fmt.Sprintf("res-%d", i)
		if owner, ok := router.Owner(cand); ok && owner != oldOwner {
			moved = cand
			break
		}
	}
	if moved == "" {
		t.Fatal("no cross-shard key found")
	}
	retargeted := policy.NewPolicy("pol-res-5").
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID(moved)).
		Rule(policy.Permit("allow").When(policy.MatchActionID("read")).Build()).
		Rule(policy.Deny("default").Build()).
		Build()
	before := router.Stats()
	if err := router.ApplyUpdate(pdp.Update{ID: "pol-res-5", Child: retargeted}); err != nil {
		t.Fatal(err)
	}
	if st := router.Stats(); st.UpdateShardsTouched-before.UpdateShardsTouched != 2 {
		t.Errorf("cross-shard key move on unsorted root touched %d shards, want all 2 (full repartition fallback)",
			st.UpdateShardsTouched-before.UpdateShardsTouched)
	}
	assertMatchesEngine(append(all, moved))
}

// TestRouterApplyUpdateNotIncremental covers the fallback contract.
func TestRouterApplyUpdateNotIncremental(t *testing.T) {
	router, err := New("c", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := updPolicy("res-0", 0)
	if err := router.ApplyUpdate(pdp.Update{ID: p.ID, Child: p}); !errors.Is(err, pdp.ErrNotIncremental) {
		t.Errorf("no root: err = %v, want ErrNotIncremental", err)
	}
	if err := router.SetRoot(updPolicy("res-1", 0)); err != nil {
		t.Fatal(err)
	}
	if err := router.ApplyUpdate(pdp.Update{ID: p.ID, Child: p}); !errors.Is(err, pdp.ErrNotIncremental) {
		t.Errorf("non-set root: err = %v, want ErrNotIncremental", err)
	}
}

// TestAddShardRollback forces the rebalanced install to fail and asserts
// the membership change is rolled back: no half-joined empty shard may
// stay in the ring fail-closing its slice of the key space. The invalid
// root is injected directly (no public path installs one), modelling a
// corrupted policy source discovered mid-rebalance.
func TestAddShardRollback(t *testing.T) {
	router, err := New("c", Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string]policy.Evaluable)
	for i := 0; i < 12; i++ {
		p := updPolicy(fmt.Sprintf("res-%d", i), 0)
		model[p.ID] = p
	}
	if err := router.SetRoot(updModelRoot(model)); err != nil {
		t.Fatal(err)
	}
	want := router.DecideAt(context.Background(), policy.NewAccessRequest("u", "res-3", "read"), testEpoch)
	if want.Decision != policy.DecisionPermit {
		t.Fatalf("baseline decision = %v", want.Decision)
	}

	// Corrupt the held root: an invalid catch-all child (empty target ⇒
	// replicated everywhere) makes the very first shard reinstall fail.
	bad := &policy.Policy{ID: "bad"} // combining 0 is invalid
	corrupt := updModelRoot(model)
	corrupt.Children = append(corrupt.Children, bad)
	router.mu.Lock()
	router.root = corrupt
	router.mu.Unlock()

	if _, err := router.AddShard(); err == nil {
		t.Fatal("AddShard with a corrupt root must fail")
	}
	if got := router.Shards(); len(got) != 1 {
		t.Fatalf("shards after failed AddShard = %v, want the original 1", got)
	}
	// Every key must still resolve to the surviving shard — before the
	// rollback fix, ~1/2 of the key space landed on the half-joined empty
	// shard and failed closed.
	for i := 0; i < 12; i++ {
		owner, ok := router.Owner(fmt.Sprintf("res-%d", i))
		if !ok || owner != "c/shard-0" {
			t.Fatalf("res-%d owner = %q after rollback, want c/shard-0", i, owner)
		}
	}
	got := router.DecideAt(context.Background(), policy.NewAccessRequest("u", "res-3", "read"), testEpoch)
	if got.Decision != want.Decision {
		t.Fatalf("decision after rollback = %v, want %v", got.Decision, want.Decision)
	}
}
