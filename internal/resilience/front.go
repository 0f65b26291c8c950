package resilience

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// FrontCache is the one decision cache of a deployment, a policy.Decider
// placed once in front of the provider a process serves: the PEP→PDP
// decision cache of Section 3.2 and the last-known-good store of degraded
// mode in one (the package doc has its decision table). Each entry keeps
// the time its decision was evaluated at, and ages count from there: an
// entry younger than ttl is a fresh hit and is not put again, and an
// Indeterminate from below, for a caller still alive, is answered from an
// entry younger than grace, marked Degraded, counted, stamped
// degraded=true on the trace span and audit-logged. A fresh hit comes
// first, so stale serving needs grace > ttl. Degraded answers from below
// are never remembered, so their age never resets, and answers made
// through a caller-supplied resolver bypass the cache.
//
// A decision is remembered only if no InvalidateChange ran since the
// generation was read before it was dispatched, so a decision evaluated
// against a superseded policy base is never served, fresh or stale, after
// the write that superseded it.
type FrontCache struct {
	next       policy.Decider
	now        func() time.Time
	ttl, grace time.Duration
	audit      func(key string, age time.Duration, cause error)
	store      *policy.DecisionCache

	hits, served, invalidations atomic.Int64
}

// FrontCacheStats is a snapshot of front-cache activity.
type FrontCacheStats struct {
	// Entries is the current occupancy.
	Entries int
	// Hits counts fresh answers served within the TTL.
	Hits int64
	// Served counts degraded answers handed out within the grace window.
	Served int64
	// Invalidations counts the entries policy writes retired, a flush
	// counting one.
	Invalidations int64
}

// NewFrontCache decorates next with a cache of about entries decisions
// that answers fresh within ttl and, taking the grace window (StaleGrace)
// and clock from p, which must be non-nil, serves stale within grace. A
// zero ttl only serves stale; a grace of at most ttl never does.
func NewFrontCache(next policy.Decider, ttl time.Duration, p *Policy, entries int) *FrontCache {
	return &FrontCache{
		next: next, now: p.Now(), ttl: ttl, grace: p.StaleGrace,
		store: policy.NewDecisionCache(max(ttl, p.StaleGrace), entries),
	}
}

// SetAudit installs the hook observing every stale answer: the request's
// cache key, the age served, and the error of the Indeterminate it
// replaced. It runs on the decision path, so it must be cheap; install it
// before serving.
func (c *FrontCache) SetAudit(hook func(key string, age time.Duration, cause error)) {
	c.audit = hook
}

// RegisterMetrics exposes the cache's hits, occupancy and invalidations
// as the repro_pdp_cache_* families, and the stale-serve count, on the
// registry.
func (c *FrontCache) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("repro_pdp_cache_hits_total",
		"Decisions served from the decision cache.",
		c.hits.Load)
	reg.GaugeFunc("repro_pdp_cache_entries",
		"Decisions currently cached, summed across cache shards.",
		c.store.Len)
	reg.CounterFunc("repro_pdp_cache_invalidations_total",
		"Cached decisions dropped by live policy updates.",
		c.invalidations.Load)
	reg.CounterFunc("repro_stale_served_total",
		"Indeterminates answered with a last-known-good decision (Degraded, within the stale grace).",
		c.served.Load)
}

// InvalidateChange retires the remembered decisions a policy write can
// affect, by policy.DecisionCache.InvalidateChange's rule: prev and next
// are the written policy's versions before and after the write, nil when
// absent. Call it after each write has been applied to the decorated
// provider.
func (c *FrontCache) InvalidateChange(prev, next policy.Evaluable) {
	c.invalidations.Add(c.store.InvalidateChange(prev, next))
}

// DecideScatterAt implements policy.Decider: it answers each selected
// position whose entry is fresh, asks the decorated provider for the rest
// at `at` (zero: the cache clock) and settles each of those on its own, so
// warm positions of a failed batch may serve stale while cold ones fail
// closed. A single decision notes front.cache=hit or miss on its span.
func (c *FrontCache) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, at time.Time, resolver policy.Resolver, out []policy.Result) {
	if at.IsZero() {
		at = c.now()
	}
	if resolver != nil {
		c.next.DecideScatterAt(ctx, reqs, positions, at, resolver, out)
		return
	}
	if err := ctx.Err(); err != nil {
		res := policy.Result{Decision: policy.DecisionIndeterminate, Err: err}
		policy.EachPosition(len(reqs), positions, func(p int) { out[p] = res })
		return
	}
	gen := c.store.Generation()
	below, done := c.sweep(reqs, positions, at, out)
	if len(reqs) == 1 {
		outcome := "miss"
		if done {
			outcome = "hit"
		}
		trace.FromContext(ctx).SetAttr("front.cache", outcome)
	}
	if done {
		return
	}
	c.next.DecideScatterAt(ctx, reqs, below, at, nil, out)
	policy.EachPosition(len(reqs), below, func(p int) {
		out[p] = c.settle(ctx, reqs[p], at, gen, out[p])
	})
}

// sweep answers the selected positions whose entry is younger than ttl and
// returns the rest, which the provider below must decide; done reports
// that every position was answered. A single request needs no list of the
// rest, so it allocates nothing.
func (c *FrontCache) sweep(reqs []*policy.Request, positions []int, at time.Time, out []policy.Result) (below []int, done bool) {
	if c.ttl <= 0 || len(reqs) == 0 {
		return positions, false
	}
	if len(reqs) == 1 && positions == nil {
		return nil, c.fresh(reqs[0], at, &out[0])
	}
	misses := make([]int, 0, len(reqs))
	policy.EachPosition(len(reqs), positions, func(p int) {
		if !c.fresh(reqs[p], at, &out[p]) {
			misses = append(misses, p)
		}
	})
	return misses, len(misses) == 0
}

// fresh sets *out to the key's decision if its entry is younger than ttl.
func (c *FrontCache) fresh(req *policy.Request, at time.Time, out *policy.Result) bool {
	res, age, ok, _ := c.store.Get(req.CacheKey(), req.CacheKeyHash(), at)
	if !ok || age >= c.ttl {
		return false
	}
	c.hits.Add(1)
	*out = res
	return true
}

// settle applies the decision table to one answer from below: remember it
// when fresh and conclusive, replace it with the key's last known good
// when it is an Indeterminate the store may answer, pass it through
// otherwise.
func (c *FrontCache) settle(ctx context.Context, req *policy.Request, at time.Time, gen uint64, res policy.Result) policy.Result {
	if res.Decision != policy.DecisionIndeterminate {
		if res.Err == nil && !res.Degraded {
			c.store.Put(req.CacheKey(), req.CacheKeyHash(), req.ResourceID(), res, at, gen)
		}
		return res
	}
	if c.grace <= c.ttl || ctx.Err() != nil {
		return res
	}
	// The bound is enforced here, not at the caller's discretion: an entry
	// aged grace or more is never served.
	stale, age, ok, _ := c.store.Get(req.CacheKey(), req.CacheKeyHash(), at)
	if !ok || age >= c.grace {
		return res
	}
	c.served.Add(1)
	stale.Degraded, stale.StaleFor = true, max(age, 0)
	if sp := trace.FromContext(ctx); sp != nil {
		sp.SetAttr("degraded", "true")
		sp.Keep()
	}
	if c.audit != nil {
		c.audit(req.CacheKey(), stale.StaleFor, res.Err)
	}
	return stale
}

// Stats returns a snapshot of cache counters.
func (c *FrontCache) Stats() FrontCacheStats {
	return FrontCacheStats{
		Entries:       int(c.store.Len()),
		Hits:          c.hits.Load(),
		Served:        c.served.Load(),
		Invalidations: c.invalidations.Load(),
	}
}
