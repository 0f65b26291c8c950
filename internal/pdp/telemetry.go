package pdp

import (
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// RegisterMetrics defines the repro_pdp_* families on reg, fed by the
// engines a deployment runs: engines lists them at scrape time, so a
// cluster's membership changes show on the next scrape. Counters and
// gauges are summed across the engines (SumStats); the snapshot epoch and
// the compile-latency histogram are per engine, labelled engine. The
// bridge is pull-model: collectors aggregate the engines' padded atomic
// stat stripes only at scrape time, so registration adds nothing to the
// decision hot path. Call once per registry; duplicate registration
// panics (telemetry.Registry semantics).
func RegisterMetrics(reg *telemetry.Registry, engines func() []*Engine) {
	stats := func() Stats { return SumStats(engines()) }
	reg.Register("repro_pdp_decisions_total",
		"Decisions the engines returned, by outcome.",
		telemetry.KindCounter, func() []telemetry.Sample {
			st := stats()
			return []telemetry.Sample{
				{Labels: []telemetry.Label{telemetry.L("outcome", "permit")}, Value: float64(st.Permits)},
				{Labels: []telemetry.Label{telemetry.L("outcome", "deny")}, Value: float64(st.Denies)},
				{Labels: []telemetry.Label{telemetry.L("outcome", "not_applicable")}, Value: float64(st.NotApplicables)},
				{Labels: []telemetry.Label{telemetry.L("outcome", "indeterminate")}, Value: float64(st.Indeterminates)},
			}
		})
	reg.CounterFunc("repro_pdp_evaluations_total",
		"Full policy evaluations.",
		func() int64 { return stats().Evaluations })
	reg.CounterFunc("repro_pdp_updates_total",
		"Incremental root patches applied.",
		func() int64 { return stats().Updates })
	reg.CounterFunc("repro_pdp_indexed_candidates_total",
		"Sum of candidate-set sizes the compiled program considered.",
		func() int64 { return stats().IndexedCandidates })
	reg.CounterFunc("repro_pdp_compiled_evaluations_total",
		"Evaluations answered by the compiled decision program.",
		func() int64 { return stats().CompiledEvaluations })
	reg.CounterFunc("repro_pdp_interpreted_evaluations_total",
		"Evaluations answered by the interpreter (uncompilable root, no program).",
		func() int64 { return stats().InterpretedEvaluations })
	reg.CounterFunc("repro_pdp_fallback_evaluations_total",
		"Compiled evaluations that ran at least one root child in the interpreter.",
		func() int64 { return stats().FallbackEvaluations })
	reg.GaugeFunc("repro_pdp_max_candidates",
		"Largest candidate set a single evaluation considered.",
		func() int64 { return stats().MaxCandidates })
	reg.CounterFunc("repro_pdp_compiles_total",
		"Policy-base compilations (full on SetRoot, delta on ApplyUpdate).",
		func() int64 { return stats().Compiles })
	reg.Register("repro_pdp_compile_ns",
		"Policy-base compilation latency (full and delta compiles), per engine.",
		telemetry.KindHistogram, func() (out []telemetry.Sample) {
			for _, e := range engines() {
				out = append(out, telemetry.Sample{Labels: []telemetry.Label{telemetry.L("engine", e.name)}, Hist: e.compileHist.Snapshot()})
			}
			return out
		})
	reg.GaugeFunc("repro_pdp_compiled_children",
		"Direct root children lowered by the compiler in the current programs.",
		func() int64 { return stats().CompiledChildren })
	reg.GaugeFunc("repro_pdp_root_children",
		"Direct root children in the current compiled programs.",
		func() int64 { return stats().RootChildren })
	reg.Register("repro_pdp_epoch",
		"Policy snapshot epoch (bumps on installs and patches), per engine.",
		telemetry.KindGauge, func() (out []telemetry.Sample) {
			for _, e := range engines() {
				var epoch uint64
				if snap := e.snap.Load(); snap != nil {
					epoch = snap.epoch
				}
				out = append(out, telemetry.Sample{Labels: []telemetry.Label{telemetry.L("engine", e.name)}, Value: float64(epoch)})
			}
			return out
		})
}

// annotateResultSpan marks a span with a decision outcome, forcing trace
// retention for Indeterminate — shared by the remote client and handler.
// Nil-safe, like all Span methods.
func annotateResultSpan(sp *trace.Span, res policy.Result) {
	if sp == nil {
		return
	}
	sp.SetAttr("pdp.decision", res.Decision.String())
	if res.Err != nil {
		sp.SetAttr("error", res.Err.Error())
	}
	if res.Decision == policy.DecisionIndeterminate {
		sp.Keep()
	}
}
