//go:build !race

package policy

import (
	"testing"
	"time"
)

// TestDecisionCacheHitAllocsFree guards the hit path every placement
// shares: a lookup of a live entry performs zero heap allocations. Skipped
// under -race, whose instrumentation perturbs allocation accounting.
func TestDecisionCacheHitAllocsFree(t *testing.T) {
	c := NewDecisionCache(time.Hour, 0)
	key, hash := cacheKeyOf(1)
	c.Put(key, hash, "res", permitBy("p"), cacheT0, c.Generation())
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, ok, _ := c.Get(key, hash, cacheT0); !ok {
			t.Fatal("warm key missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f objects/op, want 0", allocs)
	}
}

// TestDecisionCachePutAtBoundAllocsFree guards the fill every cold
// decision pays: once its stripe is warm, a put of a new key into a full
// stripe evicts and stores without a heap allocation. Skipped under -race
// like the hit guard.
func TestDecisionCachePutAtBoundAllocsFree(t *testing.T) {
	c := NewDecisionCache(time.Hour, 64)
	keys := stripeKeys(c, 4*c.stripes[0].max)
	hashes := make([]uint64, len(keys))
	for i, k := range keys {
		hashes[i] = HashString(k)
	}
	res := permitBy("p")
	next := 0
	put := func() {
		// Cycling through four times the bound puts only keys evicted
		// long since, so every put is a fill at the bound.
		c.Put(keys[next], hashes[next], "res", res, cacheT0, 0)
		next = (next + 1) % len(keys)
	}
	for i := 0; i < 2*len(keys); i++ {
		put()
	}
	allocs := testing.AllocsPerRun(1000, put)
	if allocs != 0 {
		t.Fatalf("put at the bound allocates %.2f objects/op, want 0", allocs)
	}
	if n := len(c.stripes[0].entries); n != c.stripes[0].max {
		t.Fatalf("stripe holds %d entries, want its bound %d", n, c.stripes[0].max)
	}
}
