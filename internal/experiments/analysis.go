package experiments

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/metrics"
	"repro/internal/pap"
	"repro/internal/policy"
	"repro/internal/workload"
)

// RunE23Analysis measures the static policy analyser (§3.1 conflict
// detection generalised to shadowing, redundancy, dead attributes and
// combining dead zones) at administration scale:
//
//   - full analysis: Install re-derives every finding from scratch, the
//     cost of lint-on-startup and of acctl lint over a whole base;
//   - incremental delta: Apply re-analyses only the changed root child
//     against the owners its resource keys can overlap — the cost the
//     admin plane pays per write with the lint gate on.
//
// The claim index keeps both near-linear: without it the pairwise scan is
// O(claims²) and already intractable in the 10k row. The last column is
// the end-to-end admin-write p99 through a pap.Store with the strict gate
// wired as its pre-commit hook — the latency an administrator sees per
// vetted write, store bookkeeping included.
func RunE23Analysis() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E23 — §3.1 incremental static analysis: full vs delta re-analysis, and gated admin-write p99",
		"policies", "claims", "full analysis", "incremental delta", "speedup", "admin-write p99 (strict gate)", "findings")

	const roles = 20
	for _, scale := range []int{1_000, 10_000, 100_000} {
		gen := workload.NewGenerator(workload.Config{
			Users: 100, Resources: scale, Roles: roles, Seed: 23,
		})
		base := gen.PolicyBase("base")
		cfg := analysis.Config{RootCombining: base.Combining}

		children := make([]policy.Evaluable, len(base.Children))
		copy(children, base.Children)
		eng := analysis.NewEngine(cfg)
		start := time.Now()
		eng.Install(children...)
		fullDur := time.Since(start)

		// Re-apply rewritten children — the steady-state administration
		// pattern E18 drives — and average the per-delta cost.
		const deltas = 50
		start = time.Now()
		for i := 0; i < deltas; i++ {
			child := workload.ResourcePolicy((i*2017)%scale, roles)
			eng.Apply(child.ID, child)
		}
		incDur := time.Since(start) / deltas
		speedup := float64(fullDur) / float64(incDur)

		// End-to-end gated writes: the store's pre-commit hook runs the
		// strict gate, the watcher keeps the analyser current. Rewrites of
		// existing children are clean (they replace themselves), so every
		// write passes the gate and commits.
		st := pap.NewStore("e23")
		if err := st.PutAll(children); err != nil {
			return nil, err
		}
		st.Watch(func(u pap.Update) {
			if u.Deleted {
				eng.Apply(u.ID, nil)
			} else {
				eng.Apply(u.ID, u.Policy)
			}
		})
		gate := analysis.NewGate(eng, analysis.ModeStrict)
		st.PreCommit(func(u pap.Update) error {
			ev := u.Policy
			if u.Deleted {
				ev = nil
			}
			_, err := gate.Check(u.ID, ev)
			return err
		})
		var h metrics.Histogram
		const writes = 100
		for i := 0; i < writes; i++ {
			child := workload.ResourcePolicy((i*4099)%scale, roles)
			t0 := time.Now()
			if _, err := st.Put(child); err != nil {
				return nil, err
			}
			h.Observe(time.Since(t0))
		}
		if rej := gate.Stats().Rejections; rej != 0 {
			return nil, fmt.Errorf("E23: %d self-replacement writes rejected, want 0", rej)
		}

		stats := eng.Stats()
		findings := 0
		for _, n := range stats.Findings {
			findings += n
		}
		table.AddRow(scale, stats.Claims,
			fullDur.Round(time.Millisecond),
			incDur.Round(time.Microsecond),
			fmt.Sprintf("%.0fx", speedup),
			h.Percentile(99).Round(time.Microsecond),
			findings)
	}
	return table, nil
}
