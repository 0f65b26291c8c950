package policy

import (
	"testing"
	"time"
)

// BenchmarkDecisionCachePutAtBound times the fill a cold decision pays in
// the engine's configuration (5 min TTL, 8 192 entries): a put of a new
// key into a full stripe, which evicts one entry and stores another.
func BenchmarkDecisionCachePutAtBound(b *testing.B) {
	const bound = 8192
	c := NewDecisionCache(5*time.Minute, bound)
	keys := make([]string, 4*bound)
	hashes := make([]uint64, len(keys))
	for i := range keys {
		keys[i], hashes[i] = cacheKeyOf(i)
	}
	res := permitBy("p")
	for i := range keys {
		c.Put(keys[i], hashes[i], "res", res, cacheT0, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		c.Put(keys[j], hashes[j], "res", res, cacheT0, 0)
	}
}
