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
// the entry bound and eviction are per stripe. Each stripe keeps its
// entries in put order, and a put at the bound evicts expired entries
// first, then the least recently put one, in O(1) and without iterating
// the map.
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
	// key is the entry's map key, so an eviction from the front of the
	// put order can delete it.
	key string
	// prev and next link the stripe's put order by entry index; next
	// also links the free list. noEntry ends either list.
	prev, next int32
}

// noEntry is the entry index that ends a list.
const noEntry = -1

// cacheStripe is one stripe of the cache; at 64 bytes, each stripe's
// mutex sits on its own cache line, so stripe locks taken by different
// cores do not false-share. The map holds entry indices, not entries: a
// map stores values of up to 128 bytes inline, so each empty slot of a
// table grown under eviction and invalidation churn would cost a whole
// entry. Entries live in chunks of entryChunk, allocated as the stripe
// grows and recycled through the free list, so a put allocates nothing
// once its stripe is warm. Indices rather than pointers link the lists,
// which keeps each entry's links to 8 bytes.
type cacheStripe struct {
	mu      sync.Mutex
	entries map[string]int32
	chunks  []*[entryChunk]cacheEntry
	// head is the least recently put entry and tail the most recently
	// put; free heads the recycled entries.
	head, tail, free int32
	max              int
}

// entryChunk is how many entries a stripe allocates at once.
const entryChunk = 16

func (s *cacheStripe) at(i int32) *cacheEntry {
	return &s.chunks[i/entryChunk][i%entryChunk]
}

// resetLocked empties the stripe, keeping the room of its chunk list.
// Callers hold s.mu.
func (s *cacheStripe) resetLocked() {
	s.entries = make(map[string]int32, 8)
	clear(s.chunks)
	s.chunks = s.chunks[:0]
	s.head, s.tail, s.free = noEntry, noEntry, noEntry
}

// takeLocked returns the index of a zeroed entry, growing the stripe by a
// chunk when none is free. Callers hold s.mu.
func (s *cacheStripe) takeLocked() int32 {
	if s.free == noEntry {
		base := int32(len(s.chunks)) * entryChunk
		chunk := new([entryChunk]cacheEntry)
		for j := range chunk {
			chunk[j].next = base + int32(j) + 1
		}
		chunk[entryChunk-1].next = noEntry
		s.chunks = append(s.chunks, chunk)
		s.free = base
	}
	i := s.free
	s.free = s.at(i).next
	return i
}

// pushLocked links entry i at the back of the put order. Callers hold s.mu.
func (s *cacheStripe) pushLocked(i int32) {
	en := s.at(i)
	en.prev, en.next = s.tail, noEntry
	if s.tail == noEntry {
		s.head = i
	} else {
		s.at(s.tail).next = i
	}
	s.tail = i
}

// unlinkLocked takes entry i out of the put order. Callers hold s.mu.
func (s *cacheStripe) unlinkLocked(i int32) {
	en := s.at(i)
	if en.prev == noEntry {
		s.head = en.next
	} else {
		s.at(en.prev).next = en.next
	}
	if en.next == noEntry {
		s.tail = en.prev
	} else {
		s.at(en.next).prev = en.prev
	}
}

// dropLocked deletes entry i and recycles it. Callers hold s.mu.
func (s *cacheStripe) dropLocked(i int32) {
	en := s.at(i)
	delete(s.entries, en.key)
	s.unlinkLocked(i)
	*en = cacheEntry{next: s.free}
	s.free = i
}

// minStripeCapacity floors each stripe's entry bound when splitting the
// configured total: below it, a small cache spread over many stripes would
// hold far fewer decisions than the caller sized it for, and hot keys
// colliding in a near-empty stripe would evict each other on every put.
const minStripeCapacity = 64

// evictProbe bounds how many expired entries an at-capacity put reclaims,
// so the work done under the stripe lock stays O(1) per put.
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
		s := &c.stripes[i]
		s.max = perStripe
		// A stripe never holds more than max entries, so its chunk list
		// is sized once.
		s.chunks = make([]*[entryChunk]cacheEntry, 0, (perStripe+entryChunk-1)/entryChunk)
		s.resetLocked()
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
	i, found := s.entries[key]
	if !found {
		s.mu.Unlock()
		return Result{}, 0, false, false
	}
	en := s.at(i)
	age = at.Sub(en.stored)
	if age < c.maxAge {
		res = en.res
		s.mu.Unlock()
		return res, age, true, false
	}
	s.dropLocked(i)
	s.mu.Unlock()
	return Result{}, age, false, true
}

// Put stores res as the key's decision, evaluated at `at` for a request on
// resource resID, unless the generation has moved past gen. It reports
// whether the decision was stored. A stored key becomes the most recently
// put, whether it is new or replaces an entry.
func (c *DecisionCache) Put(key string, hash uint64, resID string, res Result, at time.Time, gen uint64) bool {
	s := c.stripe(hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.gen.Load() != gen {
		return false
	}
	if i, exists := s.entries[key]; exists {
		en := s.at(i)
		en.res, en.stored, en.resID = res, at, resID
		if i != s.tail {
			s.unlinkLocked(i)
			s.pushLocked(i)
		}
		return true
	}
	if len(s.entries) >= s.max {
		c.evictLocked(s, at)
	}
	i := s.takeLocked()
	*s.at(i) = cacheEntry{res: res, stored: at, resID: resID, key: key}
	s.pushLocked(i)
	s.entries[key] = i
	return true
}

// evictLocked makes room in a full stripe: it reclaims the expired
// entries at the front of the put order, up to evictProbe of them, and
// drops the front, the least recently put entry, only when it had not
// expired. Callers hold s.mu.
func (c *DecisionCache) evictLocked(s *cacheStripe, at time.Time) {
	for n := 0; n < evictProbe && s.head != noEntry; n++ {
		if at.Sub(s.at(s.head).stored) < c.maxAge {
			if n == 0 {
				s.dropLocked(s.head)
			}
			return
		}
		s.dropLocked(s.head)
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
		for _, j := range s.entries {
			if _, hit := resIDs[s.at(j).resID]; hit {
				s.dropLocked(j)
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
		s.resetLocked()
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
