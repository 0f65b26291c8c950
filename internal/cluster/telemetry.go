package cluster

import (
	"repro/internal/pdp"
	"repro/internal/telemetry"
)

// RegisterMetrics exposes router and per-shard activity on the registry,
// with the repro_pdp_* families over every replica engine
// (pdp.RegisterMetrics), and enables per-shard decision-latency
// observation (two clock reads per routed decision; the path stays
// lock-free and allocation-free).
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
			return int64(len(r.shards))
		})
	reg.Register("repro_cluster_shard_queries_total",
		"Decisions handled per shard (replica queries summed over the group).",
		telemetry.KindCounter, r.perShard(func(s *shard) (telemetry.Sample, bool) {
			return telemetry.Sample{Value: float64(s.queries())}, true
		}))
	reg.Register("repro_cluster_shard_decide_seconds",
		"Decision latency per shard group (router-observed).",
		telemetry.KindHistogram, r.perShard(func(s *shard) (telemetry.Sample, bool) {
			return telemetry.Sample{Hist: s.lat.Snapshot()}, true
		}))
	reg.Register("repro_cluster_shard_failovers_total",
		"Failover reroutes per shard group.",
		telemetry.KindCounter, r.perShard(func(s *shard) (telemetry.Sample, bool) {
			return telemetry.Sample{Value: float64(s.group.Stats().Failovers)}, true
		}))
	reg.CounterFunc("repro_cluster_degraded_rejects_total",
		"Requests failed fast by an open shard breaker.",
		func() int64 { return r.Stats().DegradedRejects })
	reg.Register("repro_cluster_breaker_state",
		"Per-shard circuit-breaker state: 0 closed, 1 open, 2 half-open.",
		telemetry.KindGauge, r.perShard(func(s *shard) (telemetry.Sample, bool) {
			if s.breaker == nil {
				return telemetry.Sample{}, false
			}
			return telemetry.Sample{Value: float64(s.breaker.State())}, true
		}))
	reg.Register("repro_cluster_breaker_opens_total",
		"Per-shard breaker trips (closed or half-open to open).",
		telemetry.KindCounter, r.perShard(func(s *shard) (telemetry.Sample, bool) {
			if s.breaker == nil {
				return telemetry.Sample{}, false
			}
			return telemetry.Sample{Value: float64(s.breaker.Stats().Opens)}, true
		}))
	pdp.RegisterMetrics(reg, r.engines)
	r.metricsOn.Store(true)
}

// perShard builds a collector of one sample per shard, in creation order,
// labelled with the shard's name; sample reports false to skip a shard.
func (r *Router) perShard(sample func(*shard) (telemetry.Sample, bool)) func() []telemetry.Sample {
	return func() []telemetry.Sample {
		r.mu.RLock()
		defer r.mu.RUnlock()
		out := make([]telemetry.Sample, 0, len(r.shards))
		for _, s := range r.shards {
			if smp, ok := sample(s); ok {
				smp.Labels = []telemetry.Label{telemetry.L("shard", s.name)}
				out = append(out, smp)
			}
		}
		return out
	}
}
