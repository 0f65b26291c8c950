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

// RunE17Cluster measures the horizontal-scaling layer against the §3
// scalability challenge, across deployments of a single engine and
// clusters of {1, 4, 16} shards over one Zipf-skewed workload and a
// 4000-policy base. Three columns tell the story:
//
//   - scan dec/s: uncached engines, so every request is a compiled miss
//     against its shard's slice of the policy base.
//   - full dec/s: the production configuration (compiled program +
//     decision cache, warmed), routed one request at a time.
//   - batch dec/s: the same production cluster fed 250-request batches;
//     grouping by shard sweeps each cache under one critical section
//     instead of two per request.
//
// The imbalance column reports max/mean shard load under the full config
// (1.0 is perfect consistent-hash balance).
func RunE17Cluster() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E17 — §3 horizontal PDP scaling (4000 policies, Zipf workload)",
		"deployment", "scan dec/s", "full dec/s", "batch dec/s", "batch speedup", "shard imbalance")

	const (
		resources = 4000
		nRequests = 2000
		batchSize = 250
	)
	gen := workload.NewGenerator(workload.Config{
		Users: 200, Resources: resources, Roles: 10, Seed: 17,
	})
	dir := gen.Directory("idp")
	base := gen.PolicyBase("base")
	reqs := gen.Requests(nRequests)
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	scanOpts := []pdp.Option{pdp.WithResolver(dir)}
	fullOpts := []pdp.Option{pdp.WithResolver(dir), pdp.WithDecisionCache(time.Hour, 8192)}

	type provider interface {
		DecideAt(ctx context.Context, req *policy.Request, at time.Time) policy.Result
		DecideBatchAt(ctx context.Context, reqs []*policy.Request, at time.Time) []policy.Result
	}
	// Warmed (cache-hit) passes finish in milliseconds, so they repeat to
	// average out scheduler noise; the uncached scan pass is measured
	// once.
	const fastPasses = 10
	ctx := context.Background()
	perRequestRate := func(p provider, passes int) float64 {
		start := time.Now()
		for pass := 0; pass < passes; pass++ {
			for _, req := range reqs {
				p.DecideAt(ctx, req, at)
			}
		}
		return float64(passes*nRequests) / time.Since(start).Seconds()
	}
	batchRate := func(p provider) float64 {
		start := time.Now()
		for pass := 0; pass < fastPasses; pass++ {
			for i := 0; i+batchSize <= nRequests; i += batchSize {
				p.DecideBatchAt(ctx, reqs[i:i+batchSize], at)
			}
		}
		return float64(fastPasses*nRequests) / time.Since(start).Seconds()
	}

	buildEngine := func(opts []pdp.Option) (provider, error) {
		engine := pdp.New("single", opts...)
		if err := engine.SetRoot(base); err != nil {
			return nil, err
		}
		return engine, nil
	}
	buildCluster := func(shards int, opts []pdp.Option) (*cluster.Router, error) {
		router, err := cluster.New("c", cluster.Config{Shards: shards, EngineOptions: opts})
		if err != nil {
			return nil, err
		}
		if err := router.SetRoot(base); err != nil {
			return nil, err
		}
		return router, nil
	}

	addRow := func(name string, scan, full provider, loads func() []int64) {
		scanRate := perRequestRate(scan, 1)
		full.DecideBatchAt(ctx, reqs, at) // warm the decision caches
		fullRate := perRequestRate(full, fastPasses)
		batched := batchRate(full)
		imbalance := "-"
		if loads != nil {
			imbalance = fmt.Sprintf("%.2f", metrics.Imbalance(loads()))
		}
		table.AddRow(name, scanRate, fullRate, batched,
			fmt.Sprintf("%.1fx", batched/fullRate), imbalance)
	}

	scanSingle, err := buildEngine(scanOpts)
	if err != nil {
		return nil, err
	}
	fullSingle, err := buildEngine(fullOpts)
	if err != nil {
		return nil, err
	}
	addRow("single engine", scanSingle, fullSingle, nil)

	for _, shards := range []int{1, 4, 16} {
		scanRouter, err := buildCluster(shards, scanOpts)
		if err != nil {
			return nil, err
		}
		fullRouter, err := buildCluster(shards, fullOpts)
		if err != nil {
			return nil, err
		}
		addRow(fmt.Sprintf("cluster ×%d", shards),
			scanRouter, fullRouter, fullRouter.ShardLoads)
	}
	return table, nil
}
