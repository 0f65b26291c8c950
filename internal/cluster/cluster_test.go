package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ha"
	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workload"
)

var testEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// fixture builds a single reference engine and a cluster over the same
// generated policy base and subject directory.
func fixture(t *testing.T, cfg Config, resources int) (*pdp.Engine, *Router, *workload.Generator) {
	t.Helper()
	gen := workload.NewGenerator(workload.Config{
		Users: 50, Resources: resources, Roles: 5, Seed: 42,
	})
	dir := gen.Directory("idp")
	base := gen.PolicyBase("base")

	single := pdp.New("single", pdp.WithResolver(dir))
	if err := single.SetRoot(base); err != nil {
		t.Fatal(err)
	}
	cfg.EngineOptions = append(cfg.EngineOptions, pdp.WithResolver(dir))
	router, err := New("c", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.SetRoot(base); err != nil {
		t.Fatal(err)
	}
	return single, router, gen
}

// TestClusterMatchesSingleEngine is the property check of the Router
// contract: over a generated workload, a sharded cluster returns exactly
// the verdicts of a single engine evaluating the full base.
func TestClusterMatchesSingleEngine(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"1-shard", Config{Shards: 1}},
		{"4-shard", Config{Shards: 4}},
		{"16-shard", Config{Shards: 16}},
		{"4-shard-3-replica-failover", Config{Shards: 4, Replicas: 3, Strategy: ha.Failover}},
		{"4-shard-3-replica-quorum", Config{Shards: 4, Replicas: 3, Strategy: ha.Quorum}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			single, router, gen := fixture(t, tc.cfg, 200)
			for i := 0; i < 500; i++ {
				req := gen.NextRequest()
				want := policy.Decide(context.Background(), single, req, testEpoch)
				got := policy.Decide(context.Background(), router, req, testEpoch)
				if got.Decision != want.Decision || got.By != want.By {
					t.Fatalf("request %d (%s): cluster says %s by %s, single engine %s by %s",
						i, req, got.Decision, got.By, want.Decision, want.By)
				}
			}
		})
	}
}

// TestTracedDecideRecordsShard: a traced decision takes the per-shard
// dispatch, so its trace names the shard that decided it (a one-position
// cluster.shard span), and the engine traces each one-position shard group
// as a single decision: a pdp.eval span with its outcome, no pdp.batch.
// That holds for a single decision and for a batch whose requests land on
// different shards alike.
func TestTracedDecideRecordsShard(t *testing.T) {
	for _, tc := range []struct {
		name        string
		n           int
		wantBatches int64
	}{
		{"single", 1, 0},
		{"batch-groups-of-one", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, router, gen := fixture(t, Config{Shards: 4}, 200)
			// One request per owning shard, so every shard group holds one.
			want := make(map[string]policy.Decision, tc.n)
			var reqs []*policy.Request
			for len(reqs) < tc.n {
				req := gen.NextRequest()
				owner, ok := router.Owner(req.ResourceID())
				if !ok {
					t.Fatal("no owner")
				}
				if _, dup := want[owner]; dup {
					continue
				}
				want[owner] = policy.Decide(context.Background(), router, req, testEpoch).Decision
				reqs = append(reqs, req)
			}
			before := router.Stats()

			tracer := trace.NewTracer(trace.Options{Sample: 1})
			ctx, root := tracer.StartRoot(context.Background(), "test")
			if tc.n == 1 {
				policy.Decide(ctx, router, reqs[0], testEpoch)
			} else {
				policy.DecideBatch(ctx, router, reqs, testEpoch)
			}
			root.End()

			recs := tracer.Recent(1)
			if len(recs) != 1 {
				t.Fatalf("kept %d traces, want 1", len(recs))
			}
			shardOf := make(map[string]string) // cluster.shard span ID → shard
			var evals []trace.SpanRecord
			for _, sp := range recs[0].Spans {
				attrs := make(map[string]string, len(sp.Attrs))
				for _, a := range sp.Attrs {
					attrs[a.Key] = a.Value
				}
				switch sp.Name {
				case "cluster.shard":
					if _, ok := want[attrs["cluster.shard"]]; !ok || attrs["batch.n"] != "1" {
						t.Fatalf("cluster.shard span attrs = %v, want one of %v with batch.n=1", attrs, want)
					}
					shardOf[sp.ID] = attrs["cluster.shard"]
				case "pdp.eval":
					evals = append(evals, sp)
				case "pdp.batch":
					t.Fatalf("a one-position shard group opened a pdp.batch span (spans: %+v)", recs[0].Spans)
				}
			}
			if len(shardOf) != tc.n || len(evals) != tc.n {
				t.Fatalf("%d cluster.shard and %d pdp.eval spans, want %d each (spans: %+v)", len(shardOf), len(evals), tc.n, recs[0].Spans)
			}
			for _, sp := range evals {
				attrs := make(map[string]string, len(sp.Attrs))
				for _, a := range sp.Attrs {
					attrs[a.Key] = a.Value
				}
				owner, ok := shardOf[sp.Parent]
				if !ok || attrs["pdp.decision"] != want[owner].String() || attrs["pdp.cache"] != "off" || attrs["pdp.engine"] == "" {
					t.Fatalf("pdp.eval span attrs = %v under shard %q, want pdp.decision=%s pdp.cache=off and the engine", attrs, owner, want[owner])
				}
			}
			st := router.Stats()
			if st.Requests-before.Requests != 1-tc.wantBatches || st.Batches-before.Batches != tc.wantBatches {
				t.Fatalf("stats = %+v (before %+v), want %d batch(es) of %d", st, before, tc.wantBatches, tc.n)
			}
		})
	}
}

func TestClusterDecideBatchMatchesDecide(t *testing.T) {
	single, router, gen := fixture(t, Config{Shards: 4}, 200)
	reqs := gen.Requests(300)
	results := policy.DecideBatch(context.Background(), router, reqs, testEpoch)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for i, res := range results {
		want := policy.Decide(context.Background(), single, reqs[i], testEpoch)
		if res.Decision != want.Decision || res.By != want.By {
			t.Fatalf("batch item %d: %s by %s, want %s by %s",
				i, res.Decision, res.By, want.Decision, want.By)
		}
	}
	if got := policy.DecideBatch(context.Background(), router, nil, testEpoch); got != nil {
		t.Fatalf("empty batch returned %v", got)
	}
	st := router.Stats()
	if st.Batches != 1 || st.BatchRequests != 300 {
		t.Fatalf("stats = %+v, want 1 batch of 300", st)
	}
}

// TestClusterRebalanceStability checks the consistent-hashing promise at
// the policy layer: growing a 4-shard cluster by one moves roughly 1/5 of
// the policy children, and verdicts stay identical throughout.
func TestClusterRebalanceStability(t *testing.T) {
	const resources = 500
	single, router, gen := fixture(t, Config{Shards: 4}, resources)

	keyOwner := func() map[string]string {
		owners := make(map[string]string, resources)
		for i := 0; i < resources; i++ {
			key := workload.ResourceID(i)
			owner, ok := router.Owner(key)
			if !ok {
				t.Fatalf("no owner for %s", key)
			}
			owners[key] = owner
		}
		return owners
	}

	before := keyOwner()
	added, err := router.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	after := keyOwner()
	moved := 0
	for key, owner := range after {
		if owner != before[key] {
			if owner != added {
				t.Fatalf("%s moved between pre-existing shards (%s -> %s)", key, before[key], owner)
			}
			moved++
		}
	}
	if share := float64(moved) / resources; share > 0.4 {
		t.Errorf("AddShard moved %.1f%% of keys, want ≲ 20%%", 100*share)
	}
	if st := router.Stats(); st.Rebalances != 1 || st.ChildrenMoved == 0 {
		t.Errorf("stats = %+v, want 1 rebalance with moved children", st)
	}

	check := func() {
		for i := 0; i < 300; i++ {
			req := gen.NextRequest()
			want := policy.Decide(context.Background(), single, req, testEpoch)
			got := policy.Decide(context.Background(), router, req, testEpoch)
			if got.Decision != want.Decision || got.By != want.By {
				t.Fatalf("after rebalance, %s: %s by %s, want %s by %s",
					req, got.Decision, got.By, want.Decision, want.By)
			}
		}
	}
	check()

	if err := router.RemoveShard(added); err != nil {
		t.Fatal(err)
	}
	for key, owner := range keyOwner() {
		if owner != before[key] {
			t.Fatalf("RemoveShard did not restore ownership of %s", key)
		}
	}
	check()
}

// TestClusterShardFailover crashes replicas inside one shard group: the
// group keeps answering until every replica is down, and only requests
// owned by the dead shard fail (closed).
func TestClusterShardFailover(t *testing.T) {
	single, router, _ := fixture(t, Config{Shards: 4, Replicas: 3, Strategy: ha.Failover}, 200)

	// Find a resource owned by the first shard.
	victim := router.Shards()[0]
	var victimReq *policy.Request
	for i := 0; i < 200; i++ {
		key := workload.ResourceID(i)
		if owner, _ := router.Owner(key); owner == victim {
			victimReq = policy.NewAccessRequest("user-1", key, "read")
			break
		}
	}
	if victimReq == nil {
		t.Fatal("no resource owned by the victim shard")
	}
	want := policy.Decide(context.Background(), single, victimReq, testEpoch)

	replicas, err := router.Replicas(victim)
	if err != nil {
		t.Fatal(err)
	}
	// Two of three replicas down: failover keeps the verdict identical.
	replicas[0].SetDown(true)
	replicas[1].SetDown(true)
	if got := policy.Decide(context.Background(), router, victimReq, testEpoch); got.Decision != want.Decision {
		t.Fatalf("with 2/3 replicas down: %s, want %s", got.Decision, want.Decision)
	}

	// All three down: the shard's requests fail closed...
	replicas[2].SetDown(true)
	got := policy.Decide(context.Background(), router, victimReq, testEpoch)
	if got.Decision != policy.DecisionIndeterminate || !errors.Is(got.Err, ha.ErrAllReplicasDown) {
		t.Fatalf("with 3/3 replicas down: %s (%v), want Indeterminate/all-replicas-down", got.Decision, got.Err)
	}
	// ...and batches against the dead shard fail closed per-request too.
	for _, res := range policy.DecideBatch(context.Background(), router, []*policy.Request{victimReq, victimReq}, testEpoch) {
		if res.Decision != policy.DecisionIndeterminate {
			t.Fatalf("batch against dead shard: %s, want Indeterminate", res.Decision)
		}
	}

	// Other shards are unaffected.
	other := ""
	for i := 0; i < 200; i++ {
		key := workload.ResourceID(i)
		if owner, _ := router.Owner(key); owner != victim {
			other = key
			break
		}
	}
	req := policy.NewAccessRequest("user-1", other, "read")
	want = policy.Decide(context.Background(), single, req, testEpoch)
	if got := policy.Decide(context.Background(), router, req, testEpoch); got.Decision != want.Decision {
		t.Fatalf("healthy shard affected by sibling crash: %s, want %s", got.Decision, want.Decision)
	}

	// Revive: the victim answers again.
	for _, rep := range replicas {
		rep.SetDown(false)
	}
	want = policy.Decide(context.Background(), single, victimReq, testEpoch)
	if got := policy.Decide(context.Background(), router, victimReq, testEpoch); got.Decision != want.Decision {
		t.Fatalf("after revival: %s, want %s", got.Decision, want.Decision)
	}
}

// TestClusterRebalanceFlushesMovedCaches checks the cache-invalidation
// contract: after AddShard, shards whose ownership changed drop their
// cached decisions (a reinstalled base flushes the engine cache), so no
// stale verdict can outlive a rebalance.
func TestClusterRebalanceFlushesMovedCaches(t *testing.T) {
	_, router, gen := fixture(t, Config{
		Shards:        4,
		EngineOptions: []pdp.Option{pdp.WithDecisionCache(time.Hour, 0)},
	}, 500)

	reqs := gen.Requests(200)
	for _, req := range reqs {
		policy.Decide(context.Background(), router, req, testEpoch)
		policy.Decide(context.Background(), router, req, testEpoch) // warm the per-shard caches
	}
	if _, err := router.AddShard(); err != nil {
		t.Fatal(err)
	}
	// Decisions for moved resources re-evaluate on the new owner rather
	// than serving another shard's stale cache; verdicts stay correct.
	for _, req := range reqs {
		res := policy.Decide(context.Background(), router, req, testEpoch)
		if res.Decision == policy.DecisionIndeterminate {
			t.Fatalf("post-rebalance Indeterminate for %s: %v", req, res.Err)
		}
	}
}

func TestClusterConfigAndErrors(t *testing.T) {
	if _, err := New("c", Config{Shards: 0}); err == nil {
		t.Fatal("New accepted 0 shards")
	}
	router, err := New("c", Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.SetRoot(nil); err == nil {
		t.Fatal("SetRoot accepted nil root")
	}
	// Deciding before any root is installed fails closed.
	res := policy.Decide(context.Background(), router, policy.NewAccessRequest("u", "r", "read"), testEpoch)
	if res.Decision != policy.DecisionIndeterminate {
		t.Fatalf("rootless decide: %s, want Indeterminate", res.Decision)
	}
	if err := router.RemoveShard(router.Shards()[0]); !errors.Is(err, ErrLastShard) {
		t.Fatalf("RemoveShard(last) = %v, want ErrLastShard", err)
	}
	if err := router.RemoveShard("nope"); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("RemoveShard(unknown) = %v, want ErrUnknownShard", err)
	}
	if _, err := router.Replicas("nope"); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("Replicas(unknown) = %v, want ErrUnknownShard", err)
	}
}

// TestClusterNonPartitionableRoot replicates a bare Policy (no PolicySet
// children to split) to every shard; verdicts still match a single engine.
func TestClusterNonPartitionableRoot(t *testing.T) {
	root := policy.NewPolicy("allow-reads").
		Combining(policy.FirstApplicable).
		Rule(policy.Permit("reads").When(policy.MatchActionID("read")).Build()).
		Rule(policy.Deny("default").Build()).
		Build()
	single := pdp.New("single")
	if err := single.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	router, err := New("c", Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	for _, action := range []string{"read", "write"} {
		for i := 0; i < 30; i++ {
			req := policy.NewAccessRequest("u", workload.ResourceID(i), action)
			want := policy.Decide(context.Background(), single, req, testEpoch)
			got := policy.Decide(context.Background(), router, req, testEpoch)
			if got.Decision != want.Decision {
				t.Fatalf("%s %s: %s, want %s", action, workload.ResourceID(i), got.Decision, want.Decision)
			}
		}
	}
	// Growing a cluster with a non-partitionable root installs the full
	// base on the new shard too.
	if _, err := router.AddShard(); err != nil {
		t.Fatal(err)
	}
	req := policy.NewAccessRequest("u", "anything", "read")
	if got := policy.Decide(context.Background(), router, req, testEpoch); got.Decision != policy.DecisionPermit {
		t.Fatalf("new shard after rebalance: %s, want Permit", got.Decision)
	}
}

// TestClusterDisjunctiveTargetReplicated guards the partitioner against
// unsound exact-match extraction: a child whose target ORs a resource
// match with a role match (resource-id==res-0 OR role==admin) applies to
// ANY resource for admins, so it must be treated as a catch-all and
// replicated to every shard — an admin request routed to any shard gets
// the same Permit a single engine gives.
func TestClusterDisjunctiveTargetReplicated(t *testing.T) {
	base := policy.NewPolicySet("base").Combining(policy.FirstApplicable)
	base.Add(policy.NewPolicy("admin-or-res0").
		Combining(policy.FirstApplicable).
		WhenAny(policy.MatchResourceID(workload.ResourceID(0)), policy.MatchRole("admin")).
		Rule(policy.Permit("allow").Build()).
		Build())
	for i := 1; i < 40; i++ {
		base.Add(policy.NewPolicy(fmt.Sprintf("pol-%d", i)).
			Combining(policy.FirstApplicable).
			When(policy.MatchResourceID(workload.ResourceID(i))).
			Rule(policy.Deny("default").Build()).
			Build())
	}
	root := base.Build()

	single := pdp.New("single")
	if err := single.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	router, err := New("c", Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		req := policy.NewAccessRequest("root", workload.ResourceID(i), "write").
			Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String("admin"))
		want := policy.Decide(context.Background(), single, req, testEpoch)
		got := policy.Decide(context.Background(), router, req, testEpoch)
		if want.Decision != policy.DecisionPermit {
			t.Fatalf("single engine: admin on %s = %s, want Permit", workload.ResourceID(i), want.Decision)
		}
		if got.Decision != want.Decision {
			t.Fatalf("admin on %s: cluster %s, single %s — disjunctive child not replicated",
				workload.ResourceID(i), got.Decision, want.Decision)
		}
	}
}

// TestClusterLoadBalance drives a Zipf workload and checks no shard is
// left idle.
func TestClusterLoadBalance(t *testing.T) {
	_, router, gen := fixture(t, Config{Shards: 4}, 500)
	for _, req := range gen.Requests(2000) {
		policy.Decide(context.Background(), router, req, testEpoch)
	}
	loads := router.ShardLoads()
	if len(loads) != 4 {
		t.Fatalf("ShardLoads reported %d shards", len(loads))
	}
	for i, l := range loads {
		if l == 0 {
			t.Errorf("shard %d received no load", i)
		}
	}
}
