package cluster

import (
	"strings"
	"testing"

	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

// TestRouterClusterFamiliesGolden pins the repro_cluster_* families a
// router with breakers armed exposes: exactly these thirteen, each with its
// kind and help text. A family renamed, dropped or added fails here.
func TestRouterClusterFamiliesGolden(t *testing.T) {
	golden := map[string]string{
		"repro_cluster_batch_requests_total":   "counter Requests carried by routed batches.",
		"repro_cluster_batches_total":          "counter Batch decisions (two or more requests) routed.",
		"repro_cluster_breaker_opens_total":    "counter Per-shard breaker trips (closed or half-open to open).",
		"repro_cluster_breaker_state":          "gauge Per-shard circuit-breaker state: 0 closed, 1 open, 2 half-open.",
		"repro_cluster_children_moved_total":   "counter Policy-base children whose owning shard changed across rebalances.",
		"repro_cluster_degraded_rejects_total": "counter Requests failed fast by an open shard breaker.",
		"repro_cluster_rebalances_total":       "counter Shard membership changes.",
		"repro_cluster_requests_total":         "counter Single decisions routed (one-request batches included).",
		"repro_cluster_shard_decide_seconds":   "histogram Decision latency per shard group (router-observed).",
		"repro_cluster_shard_failovers_total":  "counter Failover reroutes per shard group.",
		"repro_cluster_shard_queries_total":    "counter Decisions handled per shard (replica queries summed over the group).",
		"repro_cluster_shards":                 "gauge Current shard count.",
		"repro_cluster_updates_total":          "counter Incremental policy deltas applied.",
	}
	_, router, _ := fixture(t, Config{Shards: 2, Replicas: 2, Resilience: &resilience.Policy{}}, 20)
	reg := telemetry.NewRegistry()
	router.RegisterMetrics(reg)
	telemetrytest.CheckFamilies(t, reg.Render(), "repro_cluster_", golden)
}

// TestRouterPDPFamiliesGolden pins the repro_pdp_* families a router
// exposes: exactly these sixteen, each with its kind and help text, and
// the per-engine ones labelled by engine. pdp.RegisterMetrics defines
// them once; a family renamed, dropped, added or redefined elsewhere
// fails here.
func TestRouterPDPFamiliesGolden(t *testing.T) {
	golden := map[string]string{
		"repro_pdp_cache_entries":                 "gauge Decisions currently cached, summed across cache shards.",
		"repro_pdp_cache_hits_total":              "counter Decisions served from the decision cache.",
		"repro_pdp_cache_invalidations_total":     "counter Cached decisions dropped by live policy updates.",
		"repro_pdp_compile_ns":                    "histogram Policy-base compilation latency (full and delta compiles), per engine.",
		"repro_pdp_compiled_children":             "gauge Direct root children lowered by the compiler in the current programs.",
		"repro_pdp_compiled_evaluations_total":    "counter Evaluations answered by the compiled decision program.",
		"repro_pdp_compiles_total":                "counter Policy-base compilations (full on SetRoot, delta on ApplyUpdate).",
		"repro_pdp_decisions_total":               "counter Decisions returned, by outcome (cache hits included).",
		"repro_pdp_epoch":                         "gauge Policy snapshot epoch (bumps on installs, patches and flushes), per engine.",
		"repro_pdp_evaluations_total":             "counter Full policy evaluations (decision cache misses).",
		"repro_pdp_fallback_evaluations_total":    "counter Compiled evaluations that ran at least one root child in the interpreter.",
		"repro_pdp_indexed_candidates_total":      "counter Sum of candidate-set sizes the compiled program considered.",
		"repro_pdp_interpreted_evaluations_total": "counter Evaluations answered by the interpreter (uncompilable root, no program).",
		"repro_pdp_max_candidates":                "gauge Largest candidate set a single evaluation considered.",
		"repro_pdp_root_children":                 "gauge Direct root children in the current compiled programs.",
		"repro_pdp_updates_total":                 "counter Incremental root patches applied.",
	}
	_, router, _ := fixture(t, Config{Shards: 2, Replicas: 2}, 20)
	reg := telemetry.NewRegistry()
	router.RegisterMetrics(reg)
	out := reg.Render()
	telemetrytest.CheckFamilies(t, out, "repro_pdp_", golden)
	for _, engine := range []string{"c/shard-0/r0", "c/shard-0/r1", "c/shard-1/r0", "c/shard-1/r1"} {
		for _, series := range []string{
			`repro_pdp_epoch{engine="` + engine + `"} 1`,
			`repro_pdp_compile_ns_count{engine="` + engine + `"} 1`,
		} {
			if !strings.Contains(out, "\n"+series+"\n") {
				t.Errorf("exposition missing %s", series)
			}
		}
	}
}
