package cluster

import (
	"repro/internal/telemetry"
)

// RegisterMetrics exposes router and per-shard activity on the registry
// and enables per-shard decision-latency observation (two clock reads per
// routed decision; the path stays lock-free and allocation-free).
//
// Per-shard families are collected dynamically: the collectors walk the
// live shard list at scrape time, so AddShard/RemoveShard membership
// changes appear on the next scrape without re-registration.
func (r *Router) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("repro_cluster_requests_total",
		"Single decisions routed (one-request batches included).",
		func() int64 { return r.Stats().Requests })
	reg.CounterFunc("repro_cluster_batches_total",
		"Batch decisions (two or more requests) routed.",
		func() int64 { return r.Stats().Batches })
	reg.CounterFunc("repro_cluster_batch_requests_total",
		"Requests carried by routed batches.",
		func() int64 { return r.Stats().BatchRequests })
	reg.CounterFunc("repro_cluster_rebalances_total",
		"Shard membership changes.",
		func() int64 { return r.Stats().Rebalances })
	reg.CounterFunc("repro_cluster_children_moved_total",
		"Policy-base children whose owning shard changed across rebalances.",
		func() int64 { return r.Stats().ChildrenMoved })
	reg.CounterFunc("repro_cluster_updates_total",
		"Incremental policy deltas applied.",
		func() int64 { return r.Stats().Updates })
	reg.GaugeFunc("repro_cluster_shards",
		"Current shard count.",
		func() int64 {
			r.mu.RLock()
			defer r.mu.RUnlock()
			return int64(len(r.order))
		})
	reg.Register("repro_cluster_shard_queries_total",
		"Decisions handled per shard (replica queries summed over the group).",
		telemetry.KindCounter, func() []telemetry.Sample {
			r.mu.RLock()
			defer r.mu.RUnlock()
			out := make([]telemetry.Sample, 0, len(r.order))
			for _, name := range r.order {
				var n int64
				for _, rep := range r.shards[name].replicas {
					n += rep.Queries()
				}
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{telemetry.L("shard", name)},
					Value:  float64(n),
				})
			}
			return out
		})
	reg.Register("repro_cluster_shard_decide_seconds",
		"Decision latency per shard group (router-observed).",
		telemetry.KindHistogram, func() []telemetry.Sample {
			r.mu.RLock()
			defer r.mu.RUnlock()
			out := make([]telemetry.Sample, 0, len(r.order))
			for _, name := range r.order {
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{telemetry.L("shard", name)},
					Hist:   r.shards[name].lat.Snapshot(),
				})
			}
			return out
		})
	reg.Register("repro_pdp_decisions_total",
		"Decisions by outcome, aggregated across every shard engine.",
		telemetry.KindCounter, func() []telemetry.Sample {
			st := r.EngineStats()
			return []telemetry.Sample{
				{Labels: []telemetry.Label{telemetry.L("outcome", "permit")}, Value: float64(st.Permits)},
				{Labels: []telemetry.Label{telemetry.L("outcome", "deny")}, Value: float64(st.Denies)},
				{Labels: []telemetry.Label{telemetry.L("outcome", "not_applicable")}, Value: float64(st.NotApplicables)},
				{Labels: []telemetry.Label{telemetry.L("outcome", "indeterminate")}, Value: float64(st.Indeterminates)},
			}
		})
	reg.CounterFunc("repro_pdp_evaluations_total",
		"Decisions computed by the shard engines (cache misses included).",
		func() int64 { return r.EngineStats().Evaluations })
	reg.CounterFunc("repro_pdp_cache_hits_total",
		"Decisions served from the shard engines' decision caches.",
		func() int64 { return r.EngineStats().CacheHits })
	reg.GaugeFunc("repro_pdp_cache_entries",
		"Live decision-cache occupancy summed across shard engines.",
		func() int64 { return r.EngineStats().CacheEntries })
	reg.CounterFunc("repro_pdp_fallback_evaluations_total",
		"Compiled evaluations that ran at least one root child in the interpreter, summed across shard engines.",
		func() int64 { return r.EngineStats().FallbackEvaluations })
	reg.Register("repro_cluster_shard_failovers_total",
		"Failover reroutes per shard group.",
		telemetry.KindCounter, func() []telemetry.Sample {
			r.mu.RLock()
			defer r.mu.RUnlock()
			out := make([]telemetry.Sample, 0, len(r.order))
			for _, name := range r.order {
				st := r.shards[name].group.Stats()
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{telemetry.L("shard", name)},
					Value:  float64(st.Failovers),
				})
			}
			return out
		})
	reg.CounterFunc("repro_cluster_degraded_rejects_total",
		"Requests failed fast by an open shard breaker.",
		func() int64 { return r.Stats().DegradedRejects })
	reg.Register("repro_cluster_breaker_state",
		"Per-shard circuit-breaker state: 0 closed, 1 open, 2 half-open.",
		telemetry.KindGauge, func() []telemetry.Sample {
			r.mu.RLock()
			defer r.mu.RUnlock()
			out := make([]telemetry.Sample, 0, len(r.order))
			for _, name := range r.order {
				s := r.shards[name]
				if s.breaker == nil {
					continue
				}
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{telemetry.L("shard", name)},
					Value:  float64(s.breaker.State()),
				})
			}
			return out
		})
	reg.Register("repro_cluster_breaker_opens_total",
		"Per-shard breaker trips (closed or half-open to open).",
		telemetry.KindCounter, func() []telemetry.Sample {
			r.mu.RLock()
			defer r.mu.RUnlock()
			out := make([]telemetry.Sample, 0, len(r.order))
			for _, name := range r.order {
				s := r.shards[name]
				if s.breaker == nil {
					continue
				}
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{telemetry.L("shard", name)},
					Value:  float64(s.breaker.Stats().Opens),
				})
			}
			return out
		})
	reg.Register("repro_cluster_shard_hedges_total",
		"Decisions hedged onto a second replica per shard group (and the subset the hedge won).",
		telemetry.KindCounter, func() []telemetry.Sample {
			r.mu.RLock()
			defer r.mu.RUnlock()
			out := make([]telemetry.Sample, 0, 2*len(r.order))
			for _, name := range r.order {
				st := r.shards[name].group.Stats()
				out = append(out,
					telemetry.Sample{
						Labels: []telemetry.Label{telemetry.L("shard", name), telemetry.L("outcome", "launched")},
						Value:  float64(st.Hedges),
					},
					telemetry.Sample{
						Labels: []telemetry.Label{telemetry.L("shard", name), telemetry.L("outcome", "won")},
						Value:  float64(st.HedgeWins),
					})
			}
			return out
		})
	r.metricsOn.Store(true)
}
