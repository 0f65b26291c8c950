package pip

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/policy"
)

// BenchmarkPIPCacheMissAtBound times the attribute lookup a cold decision
// pays at the default bound of 4 096 entries: a miss for a new subject,
// resolved through a Directory and filled into a full cache, which evicts
// one entry to make room. The subjects cycle through sixteen times the
// bound, so under insertion-order eviction every lookup is a miss; the
// hits/op metric reports any lookup an eviction rule let hit.
func BenchmarkPIPCacheMissAtBound(b *testing.B) {
	const bound = 4096
	d := NewDirectory("idp")
	reqs := make([]*policy.Request, 16*bound)
	for i := range reqs {
		id := fmt.Sprintf("user-%d", i)
		d.AddSubject(Subject{ID: id, Domain: "vo", Roles: []string{"role-1"}})
		reqs[i] = policy.NewAccessRequest(id, "res", "read")
	}
	c := NewCache(d, time.Hour, bound)
	ctx := context.Background()
	resolve := func(i int) {
		if _, err := c.ResolveAttribute(ctx, reqs[i%len(reqs)], policy.CategorySubject, policy.AttrSubjectRole); err != nil {
			b.Fatal(err)
		}
	}
	for i := range reqs {
		resolve(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := c.Stats().Hits
	for i := 0; i < b.N; i++ {
		resolve(i)
	}
	b.ReportMetric(float64(c.Stats().Hits-hits)/float64(b.N), "hits/op")
}
