// Package pip implements Policy Information Points: the components that
// supply subject, resource and environment attributes to decision points
// during evaluation (Section 2.2 of the paper).
//
// The package offers composable resolvers: static stores, a directory of
// subjects (the Identity Provider view), an access-history provider backing
// Chinese-Wall policies, a chain combining several providers, and a caching
// layer that bounds information-point traffic.
package pip

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Provider is a named attribute source. It extends policy.Resolver with
// introspection used by diagnostics and experiments.
type Provider interface {
	policy.Resolver
	// Name identifies the provider in diagnostics.
	Name() string
}

// StaticStore resolves attributes from an in-memory table keyed by category
// and attribute name. It is safe for concurrent use.
type StaticStore struct {
	name string

	mu    sync.RWMutex
	attrs map[string]policy.Bag
}

var _ Provider = (*StaticStore)(nil)

// NewStaticStore builds an empty static attribute store.
func NewStaticStore(name string) *StaticStore {
	return &StaticStore{name: name, attrs: make(map[string]policy.Bag)}
}

// Name implements Provider.
func (s *StaticStore) Name() string { return s.name }

func staticKey(cat policy.Category, name string) string {
	return cat.String() + "/" + name
}

// Set replaces the values of an attribute.
func (s *StaticStore) Set(cat policy.Category, name string, vals ...policy.Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attrs[staticKey(cat, name)] = policy.BagOf(vals...)
}

// ResolveAttribute implements policy.Resolver.
func (s *StaticStore) ResolveAttribute(_ context.Context, _ *policy.Request, cat policy.Category, name string) (policy.Bag, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.attrs[staticKey(cat, name)].Clone(), nil
}

// Subject is one entry of the Directory: the attributes an Identity
// Provider asserts about a principal.
type Subject struct {
	// ID is the principal's identifier.
	ID string
	// Domain is the administrative domain that issued the identity.
	Domain string
	// Roles are the subject's activatable roles.
	Roles []string
	// Groups are organisational group memberships.
	Groups []string
	// Clearance is the MAC authorisation level.
	Clearance int64
	// Extra holds any additional attributes by name.
	Extra map[string]policy.Bag
}

// Directory is a subject-attribute provider: given a request carrying a
// subject-id, it supplies the subject's roles, groups, domain, clearance and
// custom attributes. It models the Identity Provider / attribute authority
// the paper's identity-based trust approach relies on.
type Directory struct {
	name string

	mu       sync.RWMutex
	subjects map[string]Subject
}

var _ Provider = (*Directory)(nil)

// NewDirectory builds an empty subject directory.
func NewDirectory(name string) *Directory {
	return &Directory{name: name, subjects: make(map[string]Subject)}
}

// Name implements Provider.
func (d *Directory) Name() string { return d.name }

// AddSubject inserts or replaces a subject entry.
func (d *Directory) AddSubject(s Subject) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.subjects[s.ID] = s
}

// RemoveSubject deletes a subject entry, modelling deprovisioning.
func (d *Directory) RemoveSubject(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.subjects, id)
}

// Subject looks up a subject by ID.
func (d *Directory) Subject(id string) (Subject, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s, ok := d.subjects[id]
	return s, ok
}

// Len reports the number of provisioned subjects.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.subjects)
}

// SubjectIDs returns all provisioned subject identifiers, sorted.
func (d *Directory) SubjectIDs() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	ids := make([]string, 0, len(d.subjects))
	for id := range d.subjects {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ResolveAttribute implements policy.Resolver: subject-category attributes
// are looked up by the request's subject-id.
func (d *Directory) ResolveAttribute(_ context.Context, req *policy.Request, cat policy.Category, name string) (policy.Bag, error) {
	if cat != policy.CategorySubject || req == nil {
		return nil, nil
	}
	id := req.SubjectID()
	if id == "" {
		return nil, nil
	}
	d.mu.RLock()
	s, ok := d.subjects[id]
	d.mu.RUnlock()
	if !ok {
		return nil, nil
	}
	switch name {
	case policy.AttrSubjectRole:
		bag := make(policy.Bag, 0, len(s.Roles))
		for _, r := range s.Roles {
			bag = append(bag, policy.String(r))
		}
		return bag, nil
	case policy.AttrSubjectGroup:
		bag := make(policy.Bag, 0, len(s.Groups))
		for _, g := range s.Groups {
			bag = append(bag, policy.String(g))
		}
		return bag, nil
	case policy.AttrSubjectDomain:
		if s.Domain == "" {
			return nil, nil
		}
		return policy.Singleton(policy.String(s.Domain)), nil
	case policy.AttrClearance:
		return policy.Singleton(policy.Integer(s.Clearance)), nil
	default:
		return s.Extra[name].Clone(), nil
	}
}

// HistoryProvider records which conflict-of-interest datasets each subject
// has touched, and serves that history as a subject attribute. It backs the
// Brewer–Nash Chinese Wall model (Section 3.1 of the paper).
type HistoryProvider struct {
	name string
	// AttributeName is the subject attribute under which history is
	// served; defaults to "accessed-dataset".
	AttributeName string

	mu      sync.RWMutex
	touched map[string]map[string]struct{} // subject -> dataset set
}

var _ Provider = (*HistoryProvider)(nil)

// NewHistoryProvider builds an empty access-history provider.
func NewHistoryProvider(name string) *HistoryProvider {
	return &HistoryProvider{
		name:          name,
		AttributeName: "accessed-dataset",
		touched:       make(map[string]map[string]struct{}),
	}
}

// Name implements Provider.
func (h *HistoryProvider) Name() string { return h.name }

// Record notes that the subject accessed the dataset.
func (h *HistoryProvider) Record(subject, dataset string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	set, ok := h.touched[subject]
	if !ok {
		set = make(map[string]struct{})
		h.touched[subject] = set
	}
	set[dataset] = struct{}{}
}

// Accessed reports whether the subject has touched the dataset.
func (h *HistoryProvider) Accessed(subject, dataset string) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	_, ok := h.touched[subject][dataset]
	return ok
}

// ResolveAttribute implements policy.Resolver.
func (h *HistoryProvider) ResolveAttribute(_ context.Context, req *policy.Request, cat policy.Category, name string) (policy.Bag, error) {
	if cat != policy.CategorySubject || name != h.AttributeName || req == nil {
		return nil, nil
	}
	id := req.SubjectID()
	h.mu.RLock()
	defer h.mu.RUnlock()
	set := h.touched[id]
	if len(set) == 0 {
		return nil, nil
	}
	names := make([]string, 0, len(set))
	for ds := range set {
		names = append(names, ds)
	}
	sort.Strings(names)
	bag := make(policy.Bag, len(names))
	for i, ds := range names {
		bag[i] = policy.String(ds)
	}
	return bag, nil
}

// Chain queries providers in order and returns the first non-empty bag. It
// is the composition mechanism for multi-source attribute retrieval.
type Chain struct {
	name      string
	providers []Provider
}

var _ Provider = (*Chain)(nil)

// NewChain builds a resolver chain over the given providers.
func NewChain(name string, providers ...Provider) *Chain {
	return &Chain{name: name, providers: providers}
}

// Name implements Provider.
func (c *Chain) Name() string { return c.name }

// ResolveAttribute implements policy.Resolver. A done context stops the
// chain between providers, so a multi-source lookup cannot outlive the
// caller's deadline by walking every remaining source.
func (c *Chain) ResolveAttribute(ctx context.Context, req *policy.Request, cat policy.Category, name string) (policy.Bag, error) {
	for _, p := range c.providers {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pip: chain %s: %w", c.name, err)
		}
		bag, err := p.ResolveAttribute(ctx, req, cat, name)
		if err != nil {
			return nil, fmt.Errorf("pip: provider %s: %w", p.Name(), err)
		}
		if !bag.Empty() {
			return bag, nil
		}
	}
	return nil, nil
}

// CacheStats summarises cache effectiveness for experiments.
type CacheStats struct {
	// Hits counts lookups served from cache.
	Hits int64
	// Misses counts lookups the cache could not serve. Backend fetches
	// issued are Misses - Coalesced.
	Misses int64
	// Coalesced counts misses that piggybacked on another miss's
	// in-flight backend fetch instead of issuing their own.
	Coalesced int64
	// NegativeHits counts lookups answered by a cached failure
	// (WithNegativeTTL) without touching the backend.
	NegativeHits int64
	// BreakerFastFails counts lookups refused by an open breaker
	// (WithBreaker) without touching the backend.
	BreakerFastFails int64
}

// HitRate returns Hits / (Hits + Misses), or 0 for no traffic.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type cacheEntry struct {
	bag     policy.Bag
	expires time.Time
	// err, when non-nil, makes this a negative entry: the backend failed
	// recently and the failure itself is served until expiry, sparing a
	// struggling information point a retry storm (WithNegativeTTL).
	err error
}

// cacheKey identifies one cached lookup: the attribute and the subject it
// was resolved for. Being comparable, it keys the maps without a string
// being built per lookup.
type cacheKey struct {
	subject string
	cat     policy.Category
	name    string
}

// flight is one in-progress backend fetch that concurrent misses for the
// same key wait on instead of issuing their own.
type flight struct {
	done chan struct{}
	bag  policy.Bag
	err  error
}

// Cache wraps a provider with a TTL cache keyed by subject/attribute. It
// implements the information-point caching the paper discusses under
// Communication Performance (Section 3.2), including the staleness risk:
// values changed at the source remain visible until their entry expires.
//
// Concurrent misses for the same key are coalesced: one fetch travels to
// the backend and every waiter shares its result, so a burst of decisions
// over the same cold subject costs one information-point round-trip, not
// one per decision (the thundering-herd guard attribute resolution in the
// decision hot path requires). Waiters honour their own context: a waiter
// whose deadline expires abandons the flight with ctx.Err() while the
// leader's fetch completes and fills the cache for later lookups.
type Cache struct {
	name     string
	inner    Provider
	ttl      time.Duration
	negTTL   time.Duration
	now      func() time.Time
	maxItems int
	breaker  *resilience.Breaker

	mu       sync.Mutex
	entries  map[cacheKey]cacheEntry
	inflight map[cacheKey]*flight
	stats    CacheStats
	// order rings the keys of entries in insertion order, the oldest at
	// orderHead once the ring is full; it holds exactly the keys entries
	// does.
	order     []cacheKey
	orderHead int
}

var _ Provider = (*Cache)(nil)

// NewCache wraps inner with a TTL cache. A non-positive maxItems defaults to
// 4096 entries; a fill at the bound evicts the oldest inserted key (the
// cache is a bound, not an LRU: a hit does not reorder, which keeps the hot
// path allocation-free).
func NewCache(inner Provider, ttl time.Duration, maxItems int) *Cache {
	if maxItems <= 0 {
		maxItems = 4096
	}
	return &Cache{
		name:     inner.Name() + "+cache",
		inner:    inner,
		ttl:      ttl,
		now:      time.Now,
		maxItems: maxItems,
		entries:  make(map[cacheKey]cacheEntry),
		inflight: make(map[cacheKey]*flight),
	}
}

// NewCachedChain builds the standard information-point stack: the
// providers chained in order behind a TTL cache that coalesces concurrent
// misses. ttl <= 0 defaults to one minute. This is the recipe the
// decision pipeline wires into engines (pdp.WithResolver) for live
// attribute resolution.
func NewCachedChain(name string, ttl time.Duration, providers ...Provider) *Cache {
	if ttl <= 0 {
		ttl = time.Minute
	}
	return NewCache(NewChain(name, providers...), ttl, 0)
}

// WithClock overrides the cache clock, for deterministic tests.
func (c *Cache) WithClock(now func() time.Time) *Cache {
	c.now = now
	return c
}

// WithNegativeTTL arms short-TTL negative caching: a failed backend fetch
// is remembered for d, and lookups within that window are answered with
// the cached failure instead of hammering a struggling information point.
// Context errors (the caller's own expired deadline) are never negatively
// cached. Keep d much shorter than the positive TTL — it bounds how long a
// recovered backend keeps looking broken.
func (c *Cache) WithNegativeTTL(d time.Duration) *Cache {
	c.negTTL = d
	return c
}

// WithBreaker guards the backend with a circuit breaker: threshold
// consecutive fetch failures trip it, and until the cooldown admits a
// probe, lookups fail fast with resilience.ErrOpen instead of queueing on
// a dead information point. The breaker shares the cache clock.
func (c *Cache) WithBreaker(threshold int, cooldown time.Duration) *Cache {
	c.breaker = resilience.NewBreaker(c.name, resilience.BreakerConfig{
		Threshold: threshold,
		Cooldown:  cooldown,
		Clock:     func() time.Time { return c.now() },
	})
	return c
}

// BreakerStats returns the backend breaker's counters; zero without
// WithBreaker.
func (c *Cache) BreakerStats() resilience.BreakerStats {
	if c.breaker == nil {
		return resilience.BreakerStats{}
	}
	return c.breaker.Stats()
}

// Name implements Provider.
func (c *Cache) Name() string { return c.name }

// Stats returns a snapshot of cache effectiveness counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// RegisterMetrics exposes the cache's effectiveness counters on the
// registry, pull-model: the collector takes the cache lock only at scrape
// time.
func (c *Cache) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("repro_pip_cache_hits_total",
		"Attribute lookups served from the PIP cache.",
		func() int64 { return c.Stats().Hits })
	reg.CounterFunc("repro_pip_cache_misses_total",
		"Attribute lookups the PIP cache could not serve.",
		func() int64 { return c.Stats().Misses })
	reg.CounterFunc("repro_pip_cache_coalesced_total",
		"Misses that piggybacked on another miss's in-flight backend fetch.",
		func() int64 { return c.Stats().Coalesced })
	reg.CounterFunc("repro_pip_cache_negative_hits_total",
		"Attribute lookups answered by a cached backend failure.",
		func() int64 { return c.Stats().NegativeHits })
	reg.CounterFunc("repro_pip_cache_breaker_fast_fails_total",
		"Attribute lookups refused by the backend circuit breaker.",
		func() int64 { return c.Stats().BreakerFastFails })
}

// Invalidate drops every cached entry, modelling explicit revocation push.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[cacheKey]cacheEntry)
	c.order, c.orderHead = nil, 0
}

// ResolveAttribute implements policy.Resolver. See the Cache doc for the
// coalescing and cancellation semantics. A flight that fails because its
// *leader's* context died is not inherited by the waiters: a waiter whose
// own context is still live retries as the new leader, so one impatient
// caller cannot poison a burst of healthy ones.
func (c *Cache) ResolveAttribute(ctx context.Context, req *policy.Request, cat policy.Category, name string) (policy.Bag, error) {
	subject := ""
	if req != nil {
		subject = req.SubjectID()
	}
	key := cacheKey{subject: subject, cat: cat, name: name}
	now := c.now()

	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok && now.Before(e.expires) {
			if e.err != nil {
				c.stats.NegativeHits++
				c.mu.Unlock()
				return nil, fmt.Errorf("pip: cache %s: negative entry: %w", c.name, e.err)
			}
			c.stats.Hits++
			c.mu.Unlock()
			return e.bag.Clone(), nil
		}
		c.stats.Misses++
		if f, ok := c.inflight[key]; ok {
			// Another miss is already fetching this key: wait for it
			// rather than thundering-herd the backend.
			c.stats.Coalesced++
			c.mu.Unlock()
			// Traced requests record the wait as its own span so the
			// trace shows the coalescing the stats only count.
			var wsp *trace.Span
			if trace.FromContext(ctx) != nil {
				_, wsp = trace.StartSpan(ctx, "pip.fetch")
				wsp.SetAttr("pip.attr", staticKey(cat, name))
				wsp.SetAttr("pip.coalesced", "true")
			}
			select {
			case <-f.done:
				wsp.End()
				if f.err == nil {
					return f.bag.Clone(), nil
				}
				if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					// The leader ran out of time, not the backend; this
					// waiter still has time — become the next leader.
					continue
				}
				return nil, f.err
			case <-ctx.Done():
				wsp.SetAttr("error", ctx.Err().Error())
				wsp.End()
				return nil, fmt.Errorf("pip: cache %s: %w", c.name, ctx.Err())
			}
		}
		if c.breaker != nil && !c.breaker.Allow() {
			c.stats.BreakerFastFails++
			c.mu.Unlock()
			return nil, fmt.Errorf("pip: cache %s: %w", c.name, resilience.ErrOpen)
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		// The leader's backend fetch is the round-trip worth timing.
		var fsp *trace.Span
		fctx := ctx
		if trace.FromContext(ctx) != nil {
			fctx, fsp = trace.StartSpan(ctx, "pip.fetch")
			fsp.SetAttr("pip.attr", staticKey(cat, name))
			fsp.SetAttr("pip.provider", c.inner.Name())
		}
		bag, err := c.inner.ResolveAttribute(fctx, req, cat, name)
		if err != nil {
			fsp.SetAttr("error", err.Error())
		}
		fsp.End()

		// A caller-context failure is nobody's verdict on the backend: it
		// feeds neither the breaker nor the negative cache — but if this
		// fetch held the half-open probe token, the token must go back, or
		// the breaker wedges in fail-fast until the token ages out.
		ctxFailure := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
		if c.breaker != nil {
			switch {
			case ctxFailure:
				c.breaker.OnAbandon()
			case err != nil:
				c.breaker.OnFailure()
			default:
				c.breaker.OnSuccess()
			}
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil {
			c.storeLocked(key, cacheEntry{bag: bag.Clone(), expires: now.Add(c.ttl)})
		} else if c.negTTL > 0 && !ctxFailure {
			c.storeLocked(key, cacheEntry{err: err, expires: now.Add(c.negTTL)})
		}
		c.mu.Unlock()
		f.bag, f.err = bag, err
		close(f.done)
		if err != nil {
			return nil, err
		}
		return bag, nil
	}
}

// storeLocked fills key's entry. A key already cached keeps its place in
// the insertion order; a new key at the bound evicts the oldest inserted
// one. Callers hold c.mu.
func (c *Cache) storeLocked(key cacheKey, e cacheEntry) {
	if _, ok := c.entries[key]; !ok {
		if len(c.order) < c.maxItems {
			c.order = append(c.order, key)
		} else {
			delete(c.entries, c.order[c.orderHead])
			c.order[c.orderHead] = key
			c.orderHead = (c.orderHead + 1) % c.maxItems
		}
	}
	c.entries[key] = e
}
