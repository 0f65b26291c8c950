package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/workload"
)

// serializedEngine emulates the pre-RCU engine for the contention
// baseline: every decision — cache hit included — passes through one
// engine-wide exclusive lock, the shape of the hot path before snapshots
// and cache striping made readers lock-free.
type serializedEngine struct {
	mu sync.Mutex
	e  *pdp.Engine
}

func (s *serializedEngine) DecideAt(ctx context.Context, req *policy.Request, at time.Time) policy.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.DecideAt(ctx, req, at)
}

// RunE20Contention measures the decision hot path under parallel load: the
// §3 requirement that one decision point absorb the aggregate traffic of
// many enforcement points, which a per-engine mutex defeats by serializing
// every decision on one lock. Worker goroutines hammer a warmed
// production-configuration engine (compiled program + decision cache, so the
// steady state is the cache-hit path); the lock-free column is the RCU
// engine, the serialized column routes the same decisions through one
// exclusive lock. The cluster rows fan the same workload over a 4-shard
// consistent-hash router. Speedups beyond GOMAXPROCS workers come from
// overlap while contended workers park; rates are hardware-dependent (the
// one experiment table that is, by design).
func RunE20Contention() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E20 — §3 hot-path contention: lock-free engine vs serialized baseline",
		"deployment", "workers", "lock-free dec/s", "serialized dec/s", "speedup")

	const (
		resources    = 2000
		nRequests    = 1024
		opsPerWorker = 20000
	)
	gen := workload.NewGenerator(workload.Config{
		Users: 200, Resources: resources, Roles: 10, Seed: 20,
	})
	base := gen.PolicyBase("base")
	reqs := gen.Requests(nRequests)
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	opts := []pdp.Option{pdp.WithResolver(gen.Directory("idp")), pdp.WithDecisionCache(time.Hour, 0)}

	type decider interface {
		DecideAt(ctx context.Context, req *policy.Request, at time.Time) policy.Result
	}
	measure := func(d decider, workers int) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < opsPerWorker; i++ {
					d.DecideAt(context.Background(), reqs[(i*7+w*131)%nRequests], at)
				}
			}(w)
		}
		wg.Wait()
		return float64(workers*opsPerWorker) / time.Since(start).Seconds()
	}

	engine := pdp.New("lock-free", opts...)
	if err := engine.SetRoot(base); err != nil {
		return nil, err
	}
	baseline := &serializedEngine{e: pdp.New("serialized", opts...)}
	if err := baseline.e.SetRoot(base); err != nil {
		return nil, err
	}
	router, err := cluster.New("c", cluster.Config{Shards: 4, EngineOptions: opts})
	if err != nil {
		return nil, err
	}
	if err := router.SetRoot(base); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, req := range reqs { // warm every decision cache
		engine.DecideAt(ctx, req, at)
		baseline.e.DecideAt(ctx, req, at)
		router.DecideAt(ctx, req, at)
	}

	for _, workers := range []int{1, 4, 16} {
		free := measure(engine, workers)
		serial := measure(baseline, workers)
		table.AddRow("single engine", workers, free, serial,
			fmt.Sprintf("%.1fx", free/serial))
	}
	for _, workers := range []int{4, 16} {
		free := measure(router, workers)
		table.AddRow("cluster ×4", workers, free, "-", "-")
	}
	return table, nil
}
