// Cluster: the Section 3 scalability challenge met horizontally. A policy
// base of 2000 per-resource policies is partitioned across a 4-shard
// consistent-hash cluster, each shard replicated 3 ways behind failover.
// The walkthrough shows (1) verdicts identical to a single engine, (2)
// batch decisions amortising evaluation overhead, (3) a shard surviving
// replica crashes, and (4) live rebalancing when the fleet grows.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/ha"
	"repro/internal/metrics"
	"repro/internal/pdp"
	"repro/internal/workload"
)

func main() {
	gen := workload.NewGenerator(workload.Config{
		Users: 100, Resources: 2000, Roles: 10, Seed: 21,
	})
	dir := gen.Directory("idp")
	base := gen.PolicyBase("org")
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	ctx := context.Background()

	single := pdp.New("single", pdp.WithResolver(dir))
	if err := single.SetRoot(base); err != nil {
		log.Fatal(err)
	}
	// The production engine configuration: compiled evaluation plus a TTL
	// decision cache on every replica (what cmd/pdpd -cache serves).
	router, err := cluster.New("fleet", cluster.Config{
		Shards:   4,
		Replicas: 3,
		Strategy: ha.Failover,
		EngineOptions: []pdp.Option{
			pdp.WithResolver(dir),
			pdp.WithDecisionCache(time.Hour, 0),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := router.SetRoot(base); err != nil {
		log.Fatal(err)
	}

	// 1. The cluster is a drop-in DecisionProvider: same verdicts as one
	// engine over the same base.
	reqs := gen.Requests(1000)
	agree := 0
	for _, req := range reqs {
		if router.DecideAt(ctx, req, at).Decision == single.DecideAt(ctx, req, at).Decision {
			agree++
		}
	}
	fmt.Printf("cluster vs single engine: %d/%d verdicts identical\n", agree, len(reqs))
	fmt.Printf("shard loads: %v (imbalance %.2f)\n",
		router.ShardLoads(), metrics.Imbalance(router.ShardLoads()))

	// 2. Batching: group per shard, evaluate each group in one pass.
	start := time.Now()
	for _, req := range reqs {
		router.DecideAt(ctx, req, at)
	}
	perReq := time.Since(start)
	start = time.Now()
	router.DecideBatchAt(ctx, reqs, at)
	batched := time.Since(start)
	fmt.Printf("1000 decisions: per-request %v, batched %v (%.1fx)\n",
		perReq.Round(time.Microsecond), batched.Round(time.Microsecond),
		float64(perReq)/float64(batched))

	// 3. Dependability per shard: crash 2 of 3 replicas of every shard;
	// failover keeps every verdict.
	for _, name := range router.Shards() {
		replicas, err := router.Replicas(name)
		if err != nil {
			log.Fatal(err)
		}
		replicas[0].SetDown(true)
		replicas[1].SetDown(true)
	}
	survived := 0
	for _, req := range reqs[:200] {
		if router.DecideAt(ctx, req, at).Decision == single.DecideAt(ctx, req, at).Decision {
			survived++
		}
	}
	fmt.Printf("with 2/3 replicas of every shard down: %d/200 verdicts still identical\n", survived)

	// 4. Live growth: add a shard; consistent hashing moves only ~1/5 of
	// the policy ownership, and verdicts are unchanged.
	before := router.Stats().ChildrenMoved
	name, err := router.AddShard()
	if err != nil {
		log.Fatal(err)
	}
	moved := router.Stats().ChildrenMoved - before
	fmt.Printf("added %s: %d of 2000 policies changed owner (%.1f%%)\n",
		name, moved, 100*float64(moved)/2000)
	agree = 0
	for _, req := range reqs[:200] {
		if router.DecideAt(ctx, req, at).Decision == single.DecideAt(ctx, req, at).Decision {
			agree++
		}
	}
	fmt.Printf("after rebalance: %d/200 verdicts identical\n", agree)
}
