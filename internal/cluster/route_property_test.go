package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/pdp"
	"repro/internal/policy"
)

// routeResources bounds the resource keys the routing property test's
// policies constrain.
const routeResources = 12

// updPair targets two resources at once, so one child's keys may share an
// owner or split across shards; each version moves both keys.
func updPair(v int) *policy.Policy {
	return policy.NewPolicy("pair").
		Combining(policy.FirstApplicable).
		WhenAny(policy.MatchResourceID(fmt.Sprintf("res-%d", v%routeResources)),
			policy.MatchResourceID(fmt.Sprintf("res-%d", (v+5)%routeResources))).
		Rule(policy.Permit("pair-allow").When(policy.MatchActionID("audit")).Build()).
		Build()
}

// TestRouterRoutesLikeRing drives a router of 1 to 6 shards through random
// sequences of AddShard, RemoveShard, SetRoot and ApplyUpdate (insert, a
// replace whose keys move between shards, delete, catch-all child) and
// checks after every step that
//   - every resource key the base constrains, and one it does not, routes
//     through the router's one owner function to the shard that a ring
//     rebuilt from Router.Shards picks (the ring kept across membership
//     changes describes exactly the current membership), and
//   - a batch with one request per key decides exactly as a single engine
//     over the same root, and
//   - Stats().ChildrenMoved equals a model that rebuilds every shard's
//     subset by ring ownership before and after each membership change
//     and counts the children each shard newly serves.
func TestRouterRoutesLikeRing(t *testing.T) {
	ctx := context.Background()
	actions := []string{"read", "write", "purge", "audit"}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var opts []pdp.Option
		if seed%2 == 0 {
			opts = append(opts, pdp.WithDecisionCache(time.Hour, 0))
		}
		router, err := New("c", Config{Shards: 1 + rng.Intn(6), EngineOptions: opts})
		if err != nil {
			t.Fatal(err)
		}
		model := make(map[string]policy.Evaluable)
		version := 0
		randomPolicy := func() policy.Evaluable {
			version++
			switch rng.Intn(4) {
			case 0:
				return updCatchAll(version)
			case 1:
				return updPair(version)
			default:
				return updPolicy(fmt.Sprintf("res-%d", rng.Intn(routeResources)), version)
			}
		}
		for i := rng.Intn(8); i > 0; i-- {
			p := randomPolicy()
			model[p.EntityID()] = p
		}
		if err := router.SetRoot(updModelRoot(model)); err != nil {
			t.Fatal(err)
		}
		moved := router.Stats().ChildrenMoved

		for step := 0; step < 60; step++ {
			var op string
			before := ringSubsets(router.Shards(), updModelRoot(model))
			rebalanced := false
			switch r := rng.Intn(12); {
			case r < 2:
				op = "add-shard"
				if len(router.Shards()) == 6 {
					op = "add-shard (at 6, skipped)"
					break
				}
				if _, err := router.AddShard(); err != nil {
					t.Fatalf("seed %d step %d: AddShard: %v", seed, step, err)
				}
				rebalanced = true
			case r < 4:
				names := router.Shards()
				victim := names[rng.Intn(len(names))]
				op = "remove-shard " + victim
				if len(names) == 1 {
					op += " (last, skipped)"
					break
				}
				if err := router.RemoveShard(victim); err != nil {
					t.Fatalf("seed %d step %d: RemoveShard(%s): %v", seed, step, victim, err)
				}
				rebalanced = true
			case r < 5:
				op = "set-root"
				model = make(map[string]policy.Evaluable)
				for i := rng.Intn(8); i > 0; i-- {
					p := randomPolicy()
					model[p.EntityID()] = p
				}
				if err := router.SetRoot(updModelRoot(model)); err != nil {
					t.Fatalf("seed %d step %d: SetRoot: %v", seed, step, err)
				}
			default:
				var u pdp.Update
				switch rng.Intn(5) {
				case 0: // insert or replace of one resource's policy
					p := updPolicy(fmt.Sprintf("res-%d", rng.Intn(routeResources)), version+1)
					u = pdp.Update{ID: p.ID, Child: p}
				case 1: // replace that moves keys between shards
					p := updRoaming(version + 1)
					u = pdp.Update{ID: p.ID, Child: p}
				case 2: // two keys, moving together
					p := updPair(version + 1)
					u = pdp.Update{ID: p.ID, Child: p}
				case 3: // catch-all child, replicated to every shard
					p := updCatchAll(version + 1)
					u = pdp.Update{ID: p.ID, Child: p}
				default: // delete, possibly of an absent child
					ids := []string{"global-guard", "roaming", "pair"}
					for id := range model {
						ids = append(ids, id)
					}
					u = pdp.Update{ID: ids[rng.Intn(len(ids))]}
				}
				version++
				op = "apply-update " + u.ID
				if u.Child == nil {
					op = "apply-delete " + u.ID
					delete(model, u.ID)
				} else {
					model[u.ID] = u.Child
				}
				if err := router.ApplyUpdate(u); err != nil {
					t.Fatalf("seed %d step %d (%s): ApplyUpdate: %v", seed, step, op, err)
				}
			}
			root := updModelRoot(model)
			where := fmt.Sprintf("seed %d step %d (%s)", seed, step, op)
			checkRoutesLikeRing(t, router, root, where)
			checkBatchLikeEngine(ctx, t, router, root, actions, where)
			if rebalanced {
				for name, ids := range ringSubsets(router.Shards(), root) {
					for id := range ids {
						if !before[name][id] {
							moved++
						}
					}
				}
			}
			if got := router.Stats().ChildrenMoved; got != moved {
				t.Fatalf("%s: ChildrenMoved = %d, model %d", where, got, moved)
			}
		}
	}
}

// ringSubsets maps each shard name to the IDs of the root children a ring
// rebuilt from names assigns it: the owners of a child's resource keys, or
// every shard for a catch-all.
func ringSubsets(names []string, root *policy.PolicySet) map[string]map[string]bool {
	fresh := make([]*shard, len(names))
	subsets := make(map[string]map[string]bool, len(names))
	for i, name := range names {
		fresh[i] = &shard{name: name}
		subsets[name] = make(map[string]bool)
	}
	points := ringPoints(fresh)
	for _, ch := range root.Children {
		keys, catchAll := policy.ResourceKeys(ch)
		for _, name := range names {
			if catchAll {
				subsets[name][ch.EntityID()] = true
			}
		}
		for _, key := range keys {
			subsets[names[ringOwner(points, key)]][ch.EntityID()] = true
		}
	}
	return subsets
}

// routeKeys lists the resource keys root constrains, then one it does not.
func routeKeys(root *policy.PolicySet) []string {
	var keys []string
	for _, ch := range root.Children {
		k, _ := policy.ResourceKeys(ch)
		keys = append(keys, k...)
	}
	return append(keys, "res-unconstrained")
}

// checkRoutesLikeRing asserts the router's one owner function, over the
// ring the router keeps, sends every key to the shard that a ring rebuilt
// from the current shard names picks.
func checkRoutesLikeRing(t *testing.T, router *Router, root *policy.PolicySet, where string) {
	t.Helper()
	names := router.Shards()
	fresh := make([]*shard, len(names))
	for i, name := range names {
		fresh[i] = &shard{name: name}
	}
	points := ringPoints(fresh)
	for _, key := range routeKeys(root) {
		want := names[ringOwner(points, key)]
		router.mu.RLock()
		got := router.shards[ringOwner(router.points, key)].name
		router.mu.RUnlock()
		if got != want {
			t.Fatalf("%s: key %s routes to %s, ring owner is %s", where, key, got, want)
		}
	}
}

// checkBatchLikeEngine asserts one batch over every key decides as a single
// engine over root.
func checkBatchLikeEngine(ctx context.Context, t *testing.T, router *Router, root *policy.PolicySet, actions []string, where string) {
	t.Helper()
	single := pdp.New("single")
	if err := single.SetRoot(root); err != nil {
		t.Fatalf("%s: single engine: %v", where, err)
	}
	keys := routeKeys(root)
	reqs := make([]*policy.Request, len(keys))
	for i, key := range keys {
		reqs[i] = policy.NewAccessRequest("alice", key, actions[i%len(actions)])
	}
	got := policy.DecideBatch(ctx, router, reqs, testEpoch)
	for i, req := range reqs {
		want := policy.Decide(ctx, single, req, testEpoch)
		if got[i].Decision != want.Decision || got[i].By != want.By {
			t.Fatalf("%s: %s on %s: router %v by %s (err %v), single engine %v by %s",
				where, req.ActionID(), req.ResourceID(), got[i].Decision, got[i].By, got[i].Err, want.Decision, want.By)
		}
	}
}
