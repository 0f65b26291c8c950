//go:build !race

package resilience_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/resilience"
)

// TestFrontCacheHitAllocsFree guards the decision cache's hit path: a
// warm front cache over a 2-shard router answers a single decision with
// zero heap allocations — the memoised cache key and hash, one stripe
// mutex and an atomic counter. Skipped under -race, whose instrumentation
// perturbs allocation accounting.
func TestFrontCacheHitAllocsFree(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	router, err := cluster.New("allocs", cluster.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := policy.NewPolicySet("root").Combining(policy.FirstApplicable)
	for i := 0; i < 16; i++ {
		res := fmt.Sprintf("res-%d", i)
		b.Add(policy.NewPolicy("pol-" + res).
			Combining(policy.FirstApplicable).
			When(policy.MatchResourceID(res)).
			Rule(policy.Permit("allow").When(policy.MatchActionID("read")).Build()).
			Build())
	}
	if err := router.SetRoot(b.Build()); err != nil {
		t.Fatal(err)
	}
	front := resilience.NewFrontCache(router, time.Hour, &resilience.Policy{}, 8192)
	ctx := context.Background()
	reqs := []*policy.Request{policy.NewAccessRequest("u", "res-3", "read")}
	out := make([]policy.Result, 1)
	decide := func() { front.DecideScatterAt(ctx, reqs, nil, at, nil, out) }
	decide()
	if out[0].Decision != policy.DecisionPermit {
		t.Fatalf("warm-up decision = %v (%v)", out[0].Decision, out[0].Err)
	}
	if allocs := testing.AllocsPerRun(200, decide); allocs != 0 {
		t.Fatalf("front-cache hit allocates %.1f objects/op, want 0", allocs)
	}
	if st := front.Stats(); st.Hits == 0 {
		t.Fatal("guard did not exercise the cache-hit path")
	}
	if st := router.EngineStats(); st.Evaluations != 1 {
		t.Fatalf("engines evaluated %d decisions, want the warm-up's 1", st.Evaluations)
	}
}
