package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/pdp"
	"repro/internal/workload"
)

// RunE21Deadlines measures what the context-aware decision pipeline buys
// under the failure mode the paper's autonomous-service architecture makes
// inevitable: a decision is an RPC, and one slow dependency — here a
// stalled replica injected into one shard of a 4-shard cluster — holds
// every request routed to it. Without deadlines the pre-refactor behaviour
// reappears: tail latency is the slow shard's worst case (and with a hung
// dependency, forever). With a per-request deadline the router, ensemble
// and stalled replica all abort on ctx.Done, so p99 is bounded at the
// deadline and the shed requests fail closed as Indeterminate.
//
// The batch rows show deadline propagation through the scatter path: a
// batch spanning all shards is bounded by the caller's deadline, not by
// the slow shard's worst case — unfinished positions come back
// Indeterminate while healthy shards' answers are kept.
func RunE21Deadlines() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E21 — deadlines vs a slow shard (4-shard cluster, one shard stalled 25ms, deadline 2ms)",
		"mode", "deadline", "p50", "p99", "max", "shed", "answered")

	const (
		resources = 2000
		nRequests = 400
		batchSize = 100
		stall     = 25 * time.Millisecond
		deadline  = 2 * time.Millisecond
	)
	gen := workload.NewGenerator(workload.Config{
		Users: 100, Resources: resources, Roles: 10, Seed: 21,
	})
	base := gen.PolicyBase("base")
	reqs := gen.Requests(nRequests)
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	router, err := cluster.New("e21", cluster.Config{
		Shards: 4,
		EngineOptions: []pdp.Option{
			pdp.WithResolver(gen.Directory("idp")),
			pdp.WithDecisionCache(time.Hour, 0),
		},
	})
	if err != nil {
		return nil, err
	}
	if err := router.SetRoot(base); err != nil {
		return nil, err
	}
	router.DecideBatchAt(context.Background(), reqs, at) // warm caches

	// Inject the slow dependency: every replica of one shard stalls each
	// call by the injected latency (a wedged disk, a GC death spiral, a
	// saturated PIP backend — the decision still completes, eventually).
	// The last shard in dispatch order, so that on hosts without spare
	// parallelism (where the router evaluates groups sequentially) the
	// healthy groups still demonstrate partial progress under a deadline.
	shards := router.Shards()
	slowShard := shards[len(shards)-1]
	replicas, err := router.Replicas(slowShard)
	if err != nil {
		return nil, err
	}
	for _, r := range replicas {
		r.SetStall(stall)
	}

	percentile := func(lat []time.Duration, p float64) time.Duration {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[int(p*float64(len(lat)-1))]
	}
	// shedCount separates deadline sheds (Indeterminate caused by the
	// expired context) from answered decisions; genuine evaluations —
	// permits and denies alike — count as answered.
	shed := func(err error) bool {
		return err != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled))
	}

	// iters is the number of timed calls per row — enough samples that
	// the p99 column means what it says even in batch mode, where one
	// call covers batchSize requests.
	run := func(mode string, bounded bool, iters int, op func(ctx context.Context) []error) {
		var lat []time.Duration
		sheds, answered := 0, 0
		for len(lat) < iters {
			ctx := context.Background()
			cancel := context.CancelFunc(func() {})
			if bounded {
				ctx, cancel = context.WithTimeout(ctx, deadline)
			}
			start := time.Now()
			errs := op(ctx)
			lat = append(lat, time.Since(start))
			for _, err := range errs {
				if shed(err) {
					sheds++
				} else {
					answered++
				}
			}
			cancel()
		}
		dl := "none"
		if bounded {
			dl = deadline.String()
		}
		table.AddRow(mode, dl,
			percentile(lat, 0.50).Round(time.Microsecond),
			percentile(lat, 0.99).Round(time.Microsecond),
			percentile(lat, 1.0).Round(time.Microsecond),
			sheds, answered)
	}

	for _, bounded := range []bool{false, true} {
		i := 0
		run("per-request", bounded, nRequests, func(ctx context.Context) []error {
			res := router.DecideAt(ctx, reqs[i%nRequests], at)
			i++
			return []error{res.Err}
		})
	}
	for _, bounded := range []bool{false, true} {
		off := 0
		run(fmt.Sprintf("batch %d", batchSize), bounded, 100, func(ctx context.Context) []error {
			results := router.DecideBatchAt(ctx, reqs[off:off+batchSize], at)
			off = (off + batchSize) % nRequests
			errs := make([]error, len(results))
			for k, res := range results {
				errs[k] = res.Err
			}
			return errs
		})
	}
	return table, nil
}
