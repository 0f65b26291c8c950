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
