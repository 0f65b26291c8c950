//go:build !race

package pdp

import (
	"context"
	"testing"
	"time"

	"repro/internal/policy"
)

// TestCacheHitDecideAllocsFree guards the acceptance bound of the
// lock-free refactor: a cache-hit decision performs zero heap allocations
// — one snapshot pointer load, the memoised cache key and hash, one shard
// mutex, and atomic counter bumps. Skipped under -race, whose
// instrumentation perturbs allocation accounting.
func TestCacheHitDecideAllocsFree(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	e := New("allocs", WithDecisionCache(time.Hour, 0))
	if err := e.SetRoot(resourcePolicies(8)); err != nil {
		t.Fatal(err)
	}
	req := policy.NewAccessRequest("u", "res-3", "read")
	if res := decideOne(e, req, at); res.Decision != policy.DecisionPermit {
		t.Fatalf("warm-up decision = %v", res.Decision)
	}
	allocs := testing.AllocsPerRun(200, func() {
		decideOne(e, req, at)
	})
	if allocs != 0 {
		t.Fatalf("cache-hit decision allocates %.1f objects/op, want 0", allocs)
	}
	if st := e.Stats(); st.CacheHits == 0 {
		t.Fatal("guard did not exercise the cache-hit path")
	}
}

// TestCompiledMissDecideAllocsFree guards the PR 10 acceptance bound: a
// cache-miss decision answered by the compiled program performs zero heap
// allocations on the common path — pooled evaluation context, pooled
// candidate scratch, precomputed results. No decision cache is configured,
// so every decision below is a full compiled evaluation.
func TestCompiledMissDecideAllocsFree(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	e := New("compiled-allocs")
	if err := e.SetRoot(resourcePolicies(8)); err != nil {
		t.Fatal(err)
	}
	req := policy.NewAccessRequest("u", "res-3", "read")
	if res := decideOne(e, req, at); res.Decision != policy.DecisionPermit {
		t.Fatalf("warm-up decision = %v", res.Decision)
	}
	allocs := testing.AllocsPerRun(200, func() {
		decideOne(e, req, at)
	})
	if allocs != 0 {
		t.Fatalf("compiled miss decision allocates %.1f objects/op, want 0", allocs)
	}
	st := e.Stats()
	if st.CompiledEvaluations == 0 || st.CompiledEvaluations != st.Evaluations {
		t.Fatalf("guard did not stay on the compiled path: %d/%d evaluations compiled",
			st.CompiledEvaluations, st.Evaluations)
	}
}

// decideOne decides one request as a one-position scatter over stack
// arrays, the way DecideAt does: a call on the concrete type, so the
// request and result cells stay off the heap and the guards above measure
// the engine alone.
func decideOne(e *Engine, req *policy.Request, at time.Time) policy.Result {
	var out [1]policy.Result
	e.DecideScatterAt(context.Background(), []*policy.Request{req}, nil, at, nil, out[:])
	return out[0]
}
