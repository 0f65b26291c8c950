package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/workload"
)

// RunE24Compile measures the §3 scalability claim on the PR 10 compiled
// decision program: an uncached (miss-path) decision against a large
// policy base should cost a few posting-list probes plus a handful of
// precompiled rule evaluations, not a tree walk. The same base and
// workload run through the plain interpreter (root.Evaluate, a linear
// scan of every child) and an uncached engine (the compiled program,
// production default); the table reports their miss throughput, the
// compiled speedup, the mean candidate-set size the program assembled per
// request, and the one-time cost of compiling the base at SetRoot.
func RunE24Compile() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E24 — §3 compiled decision program vs. interpreter on the decision miss path",
		"policies", "interp dec/s", "compiled dec/s",
		"vs interp", "candidates/req", "compile ms")
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, n := range []int{1000, 5000, 20000} {
		gen := workload.NewGenerator(workload.Config{
			Users: 100, Resources: n, Roles: 10, Seed: 24,
		})
		dir := gen.Directory("idp")
		base := gen.PolicyBase("base")

		compiled := pdp.New("compiled", pdp.WithResolver(dir))
		if err := compiled.SetRoot(base); err != nil {
			return nil, err
		}
		if st := compiled.Stats(); st.CompiledChildren != st.RootChildren {
			return nil, fmt.Errorf("E24: only %d/%d children compiled", st.CompiledChildren, st.RootChildren)
		}

		reqs := make([]*policy.Request, 500)
		for i := range reqs {
			reqs[i] = gen.NextRequest()
		}
		measure := func(decide func(req *policy.Request)) float64 {
			// Calibrate iterations to the base size so the linear arm
			// does not dominate wall time at 20k policies.
			iters := 200000 / n
			if iters < 20 {
				iters = 20
			}
			start := time.Now()
			for i := 0; i < iters; i++ {
				decide(reqs[i%len(reqs)])
			}
			return float64(iters) / time.Since(start).Seconds()
		}
		ctx := context.Background()
		interpRate := measure(func(req *policy.Request) {
			ec := policy.AcquireContext(ctx, req, at).WithResolver(dir)
			base.Evaluate(ec)
			policy.ReleaseContext(ec)
		})
		compiledRate := measure(func(req *policy.Request) { compiled.DecideAt(ctx, req, at) })
		st := compiled.Stats()
		candidates := float64(st.IndexedCandidates) / float64(st.Evaluations)
		table.AddRow(n, interpRate, compiledRate,
			fmt.Sprintf("%.0fx", compiledRate/interpRate),
			candidates,
			float64(st.CompileNanos)/1e6)
	}
	return table, nil
}
