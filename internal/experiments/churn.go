package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/workload"
)

// RunE18Churn measures live policy administration (§3.2 manageability:
// administration while the system serves traffic) under sustained writes,
// comparing the two refresh pipelines:
//
//   - full rebuild: every write reinstalls the whole root (SetRoot), which
//     revalidates O(policies) and flushes every decision cache — on a
//     cluster, on every shard;
//   - incremental: every write is a delta (ApplyUpdate) that patches the
//     one affected root child and invalidates only that child's resource
//     keys, routed to just the owning shard group.
//
// One policy is rewritten before every 200-request batch (10 writes per
// 2000-request pass), a write rate three orders of magnitude above typical
// administration, to make the refresh cost visible. The cache hit-rate
// column is the direct measure of invalidation damage: full rebuild
// re-evaluates the working set after every write, incremental keeps all
// but the rewritten resource warm. The shards touched/write column shows
// delta routing localising churn to 1 of 4 shard groups.
func RunE18Churn() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E18 — §3.2 live administration: sustained policy churn, full rebuild vs incremental delta (2000 policies)",
		"deployment", "refresh", "dec/s", "cache hit-rate", "writes", "shards touched/write")

	const (
		resources = 2000
		roles     = 10
		nRequests = 2000
		batchSize = 200
		passes    = 6
	)
	gen := workload.NewGenerator(workload.Config{
		Users: 200, Resources: resources, Roles: roles, Seed: 18,
	})
	dir := gen.Directory("idp")
	base := gen.PolicyBase("base")
	reqs := gen.Requests(nRequests)
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	opts := []pdp.Option{pdp.WithResolver(dir), pdp.WithDecisionCache(time.Hour, 1<<15)}

	// churnChild rebuilds the administered policy of one resource, the
	// write unit — workload.ResourcePolicy, so the rewritten child is
	// semantically identical to the PolicyBase original and only the
	// refresh cost (not the decisions) differs between pipelines.
	churnChild := func(i int) *policy.Policy {
		return workload.ResourcePolicy(i, roles)
	}

	type point interface {
		DecideBatchAt(ctx context.Context, reqs []*policy.Request, at time.Time) []policy.Result
		SetRoot(root policy.Evaluable) error
		ApplyUpdate(u pdp.Update) error
	}

	run := func(p point, incremental bool, stats func() pdp.Stats) (decRate, hitRate float64, writes int, err error) {
		ctx := context.Background()
		p.DecideBatchAt(ctx, reqs, at) // warm the decision caches
		before := stats()
		start := time.Now()
		for pass := 0; pass < passes; pass++ {
			for off := 0; off+batchSize <= nRequests; off += batchSize {
				child := churnChild((writes * 61) % resources)
				if incremental {
					err = p.ApplyUpdate(pdp.Update{ID: child.ID, Child: child})
				} else {
					// The full pipeline reassembles and reinstalls the
					// whole root, as pap.Store.BuildRoot + SetRoot would.
					children := make([]policy.Evaluable, len(base.Children))
					copy(children, base.Children)
					children[(writes*61)%resources] = child
					err = p.SetRoot(&policy.PolicySet{
						ID: base.ID, Combining: base.Combining, Children: children,
					})
				}
				if err != nil {
					return 0, 0, writes, err
				}
				writes++
				p.DecideBatchAt(ctx, reqs[off:off+batchSize], at)
			}
		}
		elapsed := time.Since(start).Seconds()
		after := stats()
		hits := after.CacheHits - before.CacheHits
		misses := after.Evaluations - before.Evaluations
		decRate = float64(passes*nRequests) / elapsed
		hitRate = float64(hits) / float64(hits+misses)
		return decRate, hitRate, writes, nil
	}

	addRow := func(deployment, refresh string, p point, incremental bool,
		stats func() pdp.Stats, touched func(writes int) string) error {
		if err := p.SetRoot(base); err != nil {
			return err
		}
		rate, hitRate, writes, err := run(p, incremental, stats)
		if err != nil {
			return err
		}
		table.AddRow(deployment, refresh, rate, fmt.Sprintf("%.1f%%", 100*hitRate),
			writes, touched(writes))
		return nil
	}

	for _, incremental := range []bool{false, true} {
		refresh := "full rebuild"
		if incremental {
			refresh = "incremental"
		}
		engine := pdp.New("single", opts...)
		if err := addRow("single engine", refresh, engine, incremental, engine.Stats,
			func(int) string { return "-" }); err != nil {
			return nil, err
		}
		router, err := cluster.New("c", cluster.Config{Shards: 4, EngineOptions: opts})
		if err != nil {
			return nil, err
		}
		touched := func(writes int) string {
			if !incremental {
				return "4.0 (all)"
			}
			st := router.Stats()
			return fmt.Sprintf("%.1f", float64(st.UpdateShardsTouched)/float64(st.Updates))
		}
		if err := addRow("cluster ×4", refresh, router, incremental,
			router.EngineStats, touched); err != nil {
			return nil, err
		}
	}
	return table, nil
}
