package pdp

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/policy"
)

type cacheEntry struct {
	res     policy.Result
	expires time.Time
	// resID keys the entry by the request's resource, so ApplyUpdate can
	// invalidate only the decisions a changed child constrains.
	resID string
}

// decisionCache is the engine's TTL decision cache, striped across a
// power-of-two array of shards keyed by the request's memoised cache-key
// hash. A hit or fill takes exactly one shard mutex, so concurrent
// decisions for different keys proceed without contending on a single
// engine-wide lock; size bounds and eviction are per shard, so an eviction
// sweep never stalls the other shards either.
type decisionCache struct {
	ttl    time.Duration
	mask   uint64
	shards []cacheShard
}

// cacheShard is one stripe of the cache. The trailing pad keeps each
// shard's mutex on its own cache line, so shard locks taken by different
// cores do not false-share. Entries are held by pointer: a map stores
// values of up to 128 bytes inline, so each empty slot of a table grown
// under eviction and invalidation churn would cost a whole entry.
type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	max     int
	_       [40]byte
}

// minShardCapacity floors each shard's entry bound when splitting the
// configured total: below it, a small cache spread over many shards would
// hold far fewer decisions than the caller sized it for, and hot keys
// colliding in a near-empty shard would evict each other on every miss.
const minShardCapacity = 64

// newDecisionCache sizes the stripe count to the available parallelism
// (rounded up to a power of two, capped at 256), then shrinks it until
// every shard keeps a useful share of the total entry bound, which is
// split across shards rounding up — striping trades at most n-1 entries
// of over-capacity, never under-capacity.
func newDecisionCache(ttl time.Duration, maxItems int) *decisionCache {
	n := 1
	for n < runtime.GOMAXPROCS(0)*4 && n < 256 {
		n <<= 1
	}
	for n > 1 && maxItems/n < minShardCapacity {
		n >>= 1
	}
	perShard := (maxItems + n - 1) / n
	c := &decisionCache{ttl: ttl, mask: uint64(n - 1), shards: make([]cacheShard, n)}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*cacheEntry, 8)
		c.shards[i].max = perShard
	}
	return c
}

func (c *decisionCache) shard(hash uint64) *cacheShard {
	return &c.shards[hash&c.mask]
}

// get returns the live cached decision for the key, deleting the entry
// instead when it has expired so dead entries stop pinning memory the
// moment they are touched (the insert-time sweep reclaims untouched ones).
func (c *decisionCache) get(key string, hash uint64, at time.Time) (policy.Result, bool) {
	sh := c.shard(hash)
	sh.mu.Lock()
	entry, ok := sh.entries[key]
	if ok && at.Before(entry.expires) {
		sh.mu.Unlock()
		return entry.res, true
	}
	if ok {
		delete(sh.entries, key)
	}
	sh.mu.Unlock()
	return policy.Result{}, false
}

// evictProbe bounds the expired-first scan on an at-capacity insert, so
// reclamation stays O(1) per miss instead of sweeping the whole shard
// under its lock.
const evictProbe = 8

// insertLocked stores an entry, making room at the shard bound by probing
// a bounded sample for expired entries first (map iteration order is
// randomized, so a full shard of dead entries drains across successive
// fills) and evicting one sampled live entry only when nothing in the
// sample has expired. Callers hold sh.mu.
func (sh *cacheShard) insertLocked(key string, entry *cacheEntry, at time.Time) {
	if _, exists := sh.entries[key]; !exists && len(sh.entries) >= sh.max {
		victim := ""
		scanned, reclaimed := 0, false
		for k, en := range sh.entries {
			if scanned == 0 {
				victim = k
			}
			if !at.Before(en.expires) {
				delete(sh.entries, k)
				reclaimed = true
			}
			if scanned++; scanned >= evictProbe {
				break
			}
		}
		if !reclaimed {
			delete(sh.entries, victim)
		}
	}
	sh.entries[key] = entry
}

// invalidate drops every entry whose resource key is in affected,
// returning how many were dropped. Each shard is swept under its own lock;
// concurrent hits in other shards proceed untouched.
func (c *decisionCache) invalidate(affected map[string]struct{}) int64 {
	var dropped int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for key, entry := range sh.entries {
			if _, hit := affected[entry.resID]; hit {
				delete(sh.entries, key)
				dropped++
			}
		}
		sh.mu.Unlock()
	}
	return dropped
}

// flush drops every cached decision.
func (c *decisionCache) flush() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[string]*cacheEntry, 8)
		sh.mu.Unlock()
	}
}

// len reports the cached entry count across all shards.
func (c *decisionCache) len() int64 {
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += int64(len(sh.entries))
		sh.mu.Unlock()
	}
	return n
}
