package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/pdp"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RunE22TracingOverhead prices the decision-tracing instrumentation on the
// cache-hit hot path: the observability a production deployment needs
// (§3.2's manageability requirement) is only deployable if its cost is
// known at the sampling rates operators actually run. The baseline row
// decides with no tracer at all; the sampled rows wrap every decision in a
// root span at head-sampling fractions of 0 (spans run but nothing is
// retained), 0.01 (the daemons' default) and 1 (every trace kept).
//
// This is the worst case by construction: a warmed cache hit costs ~100ns,
// so even the ~1µs of span bookkeeping (allocation of the span tree, which
// always-on slow/Indeterminate capture requires regardless of the head
// decision) multiplies it. The cost/decision column is the figure of
// merit — it is what a deployment pays per traced request, and it vanishes
// into any decision path that leaves the cache (PIP fetch, wire hop,
// evaluation), all of which are tens of microseconds at minimum. Rates are
// hardware-dependent.
func RunE22TracingOverhead() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E22 — §3.2 decision-tracing overhead on the cache-hit path",
		"sampling", "workers", "dec/s", "cost/decision", "overhead", "kept traces")

	const (
		resources    = 2000
		nRequests    = 1024
		opsPerWorker = 20000
		workers      = 8
	)
	gen := workload.NewGenerator(workload.Config{
		Users: 200, Resources: resources, Roles: 10, Seed: 22,
	})
	base := gen.PolicyBase("base")
	reqs := gen.Requests(nRequests)
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	engine := pdp.New("traced", pdp.WithResolver(gen.Directory("idp")),
		pdp.WithDecisionCache(time.Hour, 0))
	if err := engine.SetRoot(base); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, req := range reqs { // warm the decision cache
		engine.DecideAt(ctx, req, at)
	}

	// measure runs the workload with one span per decision when a tracer
	// is given, and returns the aggregate decision rate.
	measure := func(tracer *trace.Tracer) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < opsPerWorker; i++ {
					opCtx := ctx
					var root *trace.Span
					if tracer != nil {
						opCtx, root = tracer.StartRoot(ctx, "decide")
					}
					engine.DecideAt(opCtx, reqs[(i*7+w*131)%nRequests], at)
					root.End()
				}
			}(w)
		}
		wg.Wait()
		return float64(workers*opsPerWorker) / time.Since(start).Seconds()
	}

	baseline := measure(nil)
	table.AddRow("untraced", workers, baseline, "-", "-", "-")
	for _, sample := range []float64{0, 0.01, 1} {
		tracer := trace.NewTracer(trace.Options{Sample: sample})
		rate := measure(tracer)
		perOp := (1/rate - 1/baseline) * workers * 1e6 // µs of wall time per decision
		overhead := (baseline - rate) / baseline * 100
		table.AddRow(fmt.Sprintf("%.0f%%", sample*100), workers, rate,
			fmt.Sprintf("%.2fµs", perOp),
			fmt.Sprintf("%.1f%%", overhead), tracer.Stats().Kept)
	}
	return table, nil
}
