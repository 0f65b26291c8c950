package resilience

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// StaleCache is the one last-known-good layer behind degraded mode, a
// policy.Decider placed once over the provider a deployment serves. Every
// fresh conclusive decision from below is remembered with its time; an
// Indeterminate arriving while the caller's context is still alive is
// answered from the key's entry instead when that entry is younger than
// grace — marked Degraded with its StaleFor age, counted, stamped
// degraded=true on the active trace span and audit-logged. Cold keys,
// over-grace entries and dead callers fail closed, and Degraded answers
// from below (a remote PDP that itself served stale) pass through without
// being remembered, so their age never resets.
//
// The store is a policy.DecisionCache whose max age is grace: an entry
// serves while its age is under grace. StaleFor counts from the last fresh
// answer of the decorated provider, so over a decision cache a Degraded
// decision may be up to grace plus that cache's TTL past its evaluation.
//
// Revocation safety is the store's generation guard: Invalidate, called
// after every policy write, flushes the store, and a decision is
// remembered only if no flush has happened since the generation was read
// before it was dispatched. A decision evaluated against a superseded
// policy base can therefore never be served after the write that
// superseded it; a lookup after a write is a cold miss.
type StaleCache struct {
	next  policy.Decider
	now   func() time.Time
	audit func(key string, age time.Duration, cause error)
	store *policy.DecisionCache

	puts, served, tooOld, coldMiss atomic.Int64
}

// StaleCacheStats is a snapshot of stale-cache activity.
type StaleCacheStats struct {
	// Entries is the current occupancy.
	Entries int
	// Puts counts conclusive decisions remembered.
	Puts int64
	// Served counts degraded answers handed out within the grace window.
	Served int64
	// TooOld counts lookups that found an entry aged grace or more (the
	// request failed closed instead).
	TooOld int64
	// ColdMisses counts lookups for keys with no entry at all, a key
	// whose entry a policy write retired included.
	ColdMisses int64
}

// NewStaleCache decorates next with bounded-staleness degraded serving,
// taking the grace window (StaleGrace) and clock from p, which must be
// non-nil. The store holds at most 8192 decisions.
func NewStaleCache(next policy.Decider, p *Policy) *StaleCache {
	return &StaleCache{next: next, now: p.Now(), store: policy.NewDecisionCache(p.StaleGrace, 8192)}
}

// SetAudit installs the hook observing every stale answer: the request's
// cache key, the age served, and the error of the Indeterminate it
// replaced. It runs on the decision path, so it must be cheap; install it
// before serving.
func (c *StaleCache) SetAudit(hook func(key string, age time.Duration, cause error)) {
	c.audit = hook
}

// RegisterMetrics exposes the stale-serve count on the registry.
func (c *StaleCache) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("repro_stale_served_total",
		"Indeterminates answered with a last-known-good decision (Degraded, within the stale grace).",
		c.served.Load)
}

// Invalidate retires every remembered decision. Call it after each policy
// write has been applied to the decorated provider; a nil cache is a
// no-op.
func (c *StaleCache) Invalidate() {
	if c != nil {
		c.store.Flush()
	}
}

// DecideScatterAt implements policy.Decider: it asks the decorated
// provider for the selection at `at` (zero: the cache clock) and settles
// each position on its own against the last-known-good store, so warm
// positions of a failed batch may serve stale while cold ones fail
// closed. Answers made through a caller-supplied resolver pass through
// untouched, neither remembered nor replaced: that resolver's view is the
// caller's, not the deployment's.
func (c *StaleCache) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, at time.Time, resolver policy.Resolver, out []policy.Result) {
	if at.IsZero() {
		at = c.now()
	}
	gen := c.store.Generation()
	c.next.DecideScatterAt(ctx, reqs, positions, at, resolver, out)
	if resolver != nil {
		return
	}
	if positions == nil {
		for p := range reqs {
			out[p] = c.settle(ctx, reqs[p], at, gen, out[p])
		}
		return
	}
	for _, p := range positions {
		out[p] = c.settle(ctx, reqs[p], at, gen, out[p])
	}
}

// settle applies the decision table to one answer from below: remember it
// when fresh and conclusive, replace it with the key's last known good
// when it is an Indeterminate the store may answer, pass it through
// otherwise.
func (c *StaleCache) settle(ctx context.Context, req *policy.Request, at time.Time, gen uint64, res policy.Result) policy.Result {
	if res.Decision != policy.DecisionIndeterminate {
		if res.Err == nil && !res.Degraded {
			if c.store.Put(req.CacheKey(), req.CacheKeyHash(), "", res, at, gen) {
				c.puts.Add(1)
			}
		}
		return res
	}
	if ctx.Err() != nil {
		return res
	}
	stale, age, ok := c.get(req.CacheKey(), req.CacheKeyHash(), at)
	if !ok {
		return res
	}
	stale.Degraded, stale.StaleFor = true, age
	if sp := trace.FromContext(ctx); sp != nil {
		sp.SetAttr("degraded", "true")
		sp.Keep()
	}
	if c.audit != nil {
		c.audit(req.CacheKey(), age, res.Err)
	}
	return stale
}

// get returns the key's last known good decision and its age at `at` if
// that age is under grace, counting the lookup. An over-grace entry is
// deleted and reported as a miss: the bound is enforced here, not at the
// caller's discretion.
func (c *StaleCache) get(key string, hash uint64, at time.Time) (policy.Result, time.Duration, bool) {
	res, age, ok, expired := c.store.Get(key, hash, at)
	switch {
	case ok:
		c.served.Add(1)
		return res, max(age, 0), true
	case expired:
		c.tooOld.Add(1)
	default:
		c.coldMiss.Add(1)
	}
	return policy.Result{}, 0, false
}

// Stats returns a snapshot of cache counters.
func (c *StaleCache) Stats() StaleCacheStats {
	return StaleCacheStats{
		Entries:    int(c.store.Len()),
		Puts:       c.puts.Load(),
		Served:     c.served.Load(),
		TooOld:     c.tooOld.Load(),
		ColdMisses: c.coldMiss.Load(),
	}
}
