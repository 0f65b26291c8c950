package policy

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DecisionCache remembers decisions by request cache key for at most a
// max age: the one implementation behind the engine's TTL cache, the
// last-known-good store of degraded mode and an enforcement point's
// message-saving cache (Section 3.2). A hit needs an entry younger than
// the max age; a lookup that finds an older one deletes it.
//
// Entries are striped across a power-of-two array of stripes keyed by the
// request's memoised cache-key hash, so a lookup or put takes exactly one
// stripe mutex and concurrent decisions for different keys do not contend;
// the entry bound and eviction are per stripe.
//
// A generation guards puts against resurrecting what an Invalidate or
// Flush retired: a put carries the generation read before its evaluation
// was dispatched and is dropped, under the stripe lock, when the
// generation has moved since. Invalidate and Flush move the generation
// before sweeping, so a put either observes the move or lands before the
// sweep that removes it.
type DecisionCache struct {
	maxAge  time.Duration
	gen     atomic.Uint64
	mask    uint64
	stripes []cacheStripe
}

type cacheEntry struct {
	res Result
	// stored is the time the decision was evaluated at.
	stored time.Time
	// resID keys the entry by the request's resource, so Invalidate can
	// drop only the decisions a changed policy constrains.
	resID string
}

// cacheStripe is one stripe of the cache. The trailing pad keeps each
// stripe's mutex on its own cache line, so stripe locks taken by different
// cores do not false-share. Entries are held by pointer: a map stores
// values of up to 128 bytes inline, so each empty slot of a table grown
// under eviction and invalidation churn would cost a whole entry. They are
// allocated entryChunk at a time and recycled through free, so a put
// allocates nothing once its stripe is warm.
type cacheStripe struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	free    []*cacheEntry
	max     int
	_       [16]byte
}

// entryChunk is how many entries a stripe allocates at once.
const entryChunk = 16

// takeLocked returns a zeroed entry. Callers hold s.mu.
func (s *cacheStripe) takeLocked() *cacheEntry {
	if len(s.free) == 0 {
		chunk := make([]cacheEntry, entryChunk)
		for i := range chunk {
			s.free = append(s.free, &chunk[i])
		}
	}
	en := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return en
}

// dropLocked deletes the key's entry and recycles it. Callers hold s.mu.
func (s *cacheStripe) dropLocked(key string, en *cacheEntry) {
	delete(s.entries, key)
	*en = cacheEntry{}
	s.free = append(s.free, en)
}

// minStripeCapacity floors each stripe's entry bound when splitting the
// configured total: below it, a small cache spread over many stripes would
// hold far fewer decisions than the caller sized it for, and hot keys
// colliding in a near-empty stripe would evict each other on every put.
const minStripeCapacity = 64

// evictProbe bounds the scan of an at-capacity put, so eviction stays
// O(1) per put instead of sweeping the whole stripe under its lock.
const evictProbe = 8

// NewDecisionCache builds a cache whose entries serve while younger than
// maxAge and which holds about maxEntries of them. The stripe count
// follows the available parallelism (rounded up to a power of two, capped
// at 256), then shrinks until every stripe keeps a useful share of the
// bound, which is split across stripes rounding up — striping trades at
// most n-1 entries of over-capacity, never under-capacity.
func NewDecisionCache(maxAge time.Duration, maxEntries int) *DecisionCache {
	n := 1
	for n < runtime.GOMAXPROCS(0)*4 && n < 256 {
		n <<= 1
	}
	for n > 1 && maxEntries/n < minStripeCapacity {
		n >>= 1
	}
	perStripe := max((maxEntries+n-1)/n, 1)
	c := &DecisionCache{maxAge: maxAge, mask: uint64(n - 1), stripes: make([]cacheStripe, n)}
	for i := range c.stripes {
		c.stripes[i].entries = make(map[string]*cacheEntry, 8)
		c.stripes[i].max = perStripe
	}
	return c
}

func (c *DecisionCache) stripe(hash uint64) *cacheStripe {
	return &c.stripes[hash&c.mask]
}

// Generation returns the current generation. Read it before dispatching
// the evaluation whose result is put.
func (c *DecisionCache) Generation() uint64 { return c.gen.Load() }

// Get returns the key's decision and its age at `at` when that age is
// under the max age. An entry at or over the max age is deleted, so dead
// entries stop pinning memory the moment they are touched, and expired
// reports it, telling a too-old entry from a cold key.
func (c *DecisionCache) Get(key string, hash uint64, at time.Time) (res Result, age time.Duration, ok, expired bool) {
	s := c.stripe(hash)
	s.mu.Lock()
	en, found := s.entries[key]
	if !found {
		s.mu.Unlock()
		return Result{}, 0, false, false
	}
	age = at.Sub(en.stored)
	if age < c.maxAge {
		res = en.res
		s.mu.Unlock()
		return res, age, true, false
	}
	s.dropLocked(key, en)
	s.mu.Unlock()
	return Result{}, age, false, true
}

// Put stores res as the key's decision, evaluated at `at` for a request on
// resource resID, unless the generation has moved past gen. It reports
// whether the decision was stored.
func (c *DecisionCache) Put(key string, hash uint64, resID string, res Result, at time.Time, gen uint64) bool {
	s := c.stripe(hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.gen.Load() != gen {
		return false
	}
	if en, exists := s.entries[key]; exists {
		*en = cacheEntry{res: res, stored: at, resID: resID}
		return true
	}
	if len(s.entries) >= s.max {
		c.evictLocked(s, at)
	}
	en := s.takeLocked()
	*en = cacheEntry{res: res, stored: at, resID: resID}
	s.entries[key] = en
	return true
}

// evictLocked makes room in a full stripe: it probes up to evictProbe
// entries, reclaims every expired one among them, and drops the oldest
// probed entry only when none had expired. Map iteration order is
// randomized, so a stripe full of dead entries drains across successive
// puts. Callers hold s.mu.
func (c *DecisionCache) evictLocked(s *cacheStripe, at time.Time) {
	var victimKey string
	var victim *cacheEntry
	probed, reclaimed := 0, false
	for k, en := range s.entries {
		if at.Sub(en.stored) >= c.maxAge {
			s.dropLocked(k, en)
			reclaimed = true
		} else if victim == nil || en.stored.Before(victim.stored) {
			victimKey, victim = k, en
		}
		if probed++; probed >= evictProbe {
			break
		}
	}
	if !reclaimed && victim != nil {
		s.dropLocked(victimKey, victim)
	}
}

// Invalidate drops every entry whose resource is in resIDs, returning how
// many were dropped. Each stripe is swept under its own lock; lookups in
// other stripes proceed untouched.
func (c *DecisionCache) Invalidate(resIDs map[string]struct{}) int64 {
	c.gen.Add(1)
	var dropped int64
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for key, en := range s.entries {
			if _, hit := resIDs[en.resID]; hit {
				s.dropLocked(key, en)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return dropped
}

// Flush drops every entry.
func (c *DecisionCache) Flush() {
	c.gen.Add(1)
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		s.entries = make(map[string]*cacheEntry, 8)
		s.free = nil
		s.mu.Unlock()
	}
}

// Len reports the entry count across all stripes.
func (c *DecisionCache) Len() int64 {
	var n int64
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		n += int64(len(s.entries))
		s.mu.Unlock()
	}
	return n
}
