package resilience

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// staleShards stripes the last-known-good cache the same way the PDP
// decision cache is striped: entries land in the shard addressed by the
// request's memoised cache-key hash, so concurrent Puts from the decision
// hot path contend per-stripe, not globally.
const staleShards = 16

type staleEntry struct {
	res    policy.Result
	stored time.Time
	// gen is the policy generation read before the decision was
	// dispatched; only entries of the current generation serve.
	gen uint64
}

type staleShard struct {
	mu      sync.Mutex
	entries map[string]staleEntry
	max     int
	// pad the shard to its own cache line so neighbouring shard mutexes
	// do not false-share.
	_ [40]byte
}

// StaleCache is the one last-known-good layer behind degraded mode, a
// policy.Decider placed once over the provider a deployment serves. Every
// fresh conclusive decision from below is remembered with its time; an
// Indeterminate arriving while the caller's context is still alive is
// answered from the key's entry instead when that entry is at most grace
// old — marked Degraded with its StaleFor age, counted, stamped
// degraded=true on the active trace span and audit-logged. Cold keys,
// over-grace entries and dead callers fail closed, and Degraded answers
// from below (a remote PDP that itself served stale) pass through without
// being remembered, so their age never resets.
//
// StaleFor counts from the last fresh answer of the decorated provider, so
// over a decision cache a Degraded decision may be up to grace plus that
// cache's TTL past its evaluation.
//
// Revocation safety is the engine cache's epoch guard: each decision is
// stamped with the generation read before it was dispatched, Invalidate
// moves the generation after every policy write, and only entries of the
// current generation serve. A decision evaluated against a superseded
// policy base can therefore never be served after the write that
// superseded it.
type StaleCache struct {
	next  policy.Decider
	grace time.Duration
	now   func() time.Time
	audit func(key string, age time.Duration, cause error)
	gen   atomic.Uint64

	shards [staleShards]staleShard

	puts, served, tooOld, coldMiss, superseded atomic.Int64
}

// StaleCacheStats is a snapshot of stale-cache activity.
type StaleCacheStats struct {
	// Entries is the current occupancy.
	Entries int
	// Puts counts conclusive decisions remembered.
	Puts int64
	// Served counts degraded answers handed out within the grace window.
	Served int64
	// TooOld counts lookups that found an entry beyond the grace window
	// (the request failed closed instead).
	TooOld int64
	// ColdMisses counts lookups for keys with no entry at all.
	ColdMisses int64
	// Superseded counts lookups that found an entry stored before the
	// latest policy write (the request failed closed instead).
	Superseded int64
}

// NewStaleCache decorates next with bounded-staleness degraded serving,
// taking the grace window (StaleGrace) and clock from p, which must be
// non-nil. The store holds at most 8192 decisions.
func NewStaleCache(next policy.Decider, p *Policy) *StaleCache {
	return newStaleCache(next, p.StaleGrace, p.Now(), 8192)
}

func newStaleCache(next policy.Decider, grace time.Duration, now func() time.Time, maxItems int) *StaleCache {
	perShard := maxItems / staleShards
	if perShard < 1 {
		perShard = 1
	}
	c := &StaleCache{next: next, grace: grace, now: now}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]staleEntry)
		c.shards[i].max = perShard
	}
	return c
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
		c.gen.Add(1)
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
	gen := c.gen.Load()
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
			c.put(req.CacheKey(), req.CacheKeyHash(), res, at, gen)
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

func (c *StaleCache) shard(hash uint64) *staleShard {
	return &c.shards[hash%staleShards]
}

// put remembers a conclusive decision as the key's last known good,
// stamped with the generation read before it was dispatched. An entry of
// a newer generation is never overwritten by an older one.
func (c *StaleCache) put(key string, hash uint64, res policy.Result, at time.Time, gen uint64) {
	sh := c.shard(hash)
	sh.mu.Lock()
	if e, exists := sh.entries[key]; exists {
		if e.gen > gen {
			sh.mu.Unlock()
			return
		}
	} else if len(sh.entries) >= sh.max {
		sh.evictOldestLocked()
	}
	sh.entries[key] = staleEntry{res: res, stored: at, gen: gen}
	sh.mu.Unlock()
	c.puts.Add(1)
}

// evictOldestLocked drops the oldest of up to 8 probed entries — the same
// probabilistic eviction the decision cache uses, O(1) instead of a full
// scan, biased toward dropping the stalest data first.
func (sh *staleShard) evictOldestLocked() {
	const probe = 8
	var victim string
	var oldest time.Time
	n := 0
	for k, e := range sh.entries {
		if n == 0 || e.stored.Before(oldest) {
			victim, oldest = k, e.stored
		}
		n++
		if n >= probe {
			break
		}
	}
	if n > 0 {
		delete(sh.entries, victim)
	}
}

// get returns the key's last known good decision if it belongs to the
// current generation and its age at `at` is within grace, along with that
// age. An entry failing either test is deleted and reported as a miss:
// the bounds are enforced here, not at the caller's discretion.
func (c *StaleCache) get(key string, hash uint64, at time.Time) (policy.Result, time.Duration, bool) {
	sh := c.shard(hash)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		c.coldMiss.Add(1)
		return policy.Result{}, 0, false
	}
	age := at.Sub(e.stored)
	if e.gen != c.gen.Load() || age > c.grace {
		delete(sh.entries, key)
		sh.mu.Unlock()
		if age > c.grace {
			c.tooOld.Add(1)
		} else {
			c.superseded.Add(1)
		}
		return policy.Result{}, 0, false
	}
	sh.mu.Unlock()
	if age < 0 {
		age = 0
	}
	c.served.Add(1)
	return e.res, age, true
}

// Stats returns a snapshot of cache counters.
func (c *StaleCache) Stats() StaleCacheStats {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].entries)
		c.shards[i].mu.Unlock()
	}
	return StaleCacheStats{
		Entries:    n,
		Puts:       c.puts.Load(),
		Served:     c.served.Load(),
		TooOld:     c.tooOld.Load(),
		ColdMisses: c.coldMiss.Load(),
		Superseded: c.superseded.Load(),
	}
}
