package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ha"
	"repro/internal/policy"
	"repro/internal/resilience"
)

// Breaker routing (Config.Resilience): each shard group carries a circuit
// breaker fed by the availability of its ensemble. While a breaker is open
// the router stops dispatching to the group and fails its requests fast
// and closed with resilience.ErrOpen; answering them last-known-good is
// the job of a resilience.FrontCache placed over the router. An expired
// caller context never reaches this path: the ctx check at the top of
// every entry point fails it closed first.

// BreakerStats returns each shard group's breaker counters keyed by shard
// name; empty when resilience is off.
func (r *Router) BreakerStats() map[string]resilience.BreakerStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]resilience.BreakerStats, len(r.shards))
	for _, s := range r.shards {
		if s.breaker != nil {
			out[s.name] = s.breaker.Stats()
		}
	}
	return out
}

// failFast answers n requests whose shard breaker is open: a fail-closed
// Indeterminate wrapping resilience.ErrOpen that names the shard.
func (r *Router) failFast(s *shard, n int) policy.Result {
	r.stats.degradedRejects.Add(int64(n))
	return policy.Result{Decision: policy.DecisionIndeterminate,
		Err: fmt.Errorf("cluster %s: shard %s: %w", r.name, s.name, resilience.ErrOpen)}
}

// shardFailure reports whether a result indicts the shard group's
// availability — the only signal that feeds its breaker. Application-level
// Indeterminates (a failing resolver inside a healthy replica, a dead
// caller context) are not the shard's fault and must not trip it.
func shardFailure(res policy.Result) bool {
	if res.Err == nil {
		return false
	}
	return errors.Is(res.Err, ha.ErrUnavailable) ||
		errors.Is(res.Err, ha.ErrAllReplicasDown) ||
		errors.Is(res.Err, ha.ErrNoQuorum)
}

// ctxExpired reports whether a result died with the caller's own context
// mid-dispatch. Such a call proves nothing about the shard either way: it
// must not trip the breaker, and it must not reset the failure count or
// close a half-open breaker — under cancellation-heavy overload a dead
// shard's breaker would otherwise flap closed and keep admitting traffic.
func ctxExpired(res policy.Result) bool {
	return res.Err != nil &&
		(errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded))
}

// observeGroupLocked classifies one dispatched group — a batch's share of
// one shard, or a single decision: the breaker hears a single verdict per
// dispatch (availability failures strike the whole group at once). Callers
// hold r.mu read-locked.
func (r *Router) observeGroupLocked(s *shard, indexes []int, out []policy.Result) {
	if s.breaker == nil {
		return
	}
	failed, expired := false, false
	for _, p := range indexes {
		if shardFailure(out[p]) {
			failed = true
			break
		}
		if ctxExpired(out[p]) {
			expired = true
		}
	}
	switch {
	case failed:
		s.breaker.OnFailure()
	case expired:
		// The caller ran out of time mid-batch: neutral for the breaker.
		s.breaker.OnAbandon()
	default:
		s.breaker.OnSuccess()
	}
}
