//go:build !race

package cluster

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/policy"
)

// TestRouteAllocsFree guards the routed path: on a warm 2-shard router a
// single-key decision (the owner lookup, the dispatch to the owning
// shard's group and the engine's compiled evaluation) allocates nothing.
// Skipped under -race, whose instrumentation perturbs allocation
// accounting.
func TestRouteAllocsFree(t *testing.T) {
	router, err := New("allocs", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	children := make([]policy.Evaluable, 16)
	for i := range children {
		children[i] = updPolicy(fmt.Sprintf("res-%d", i), 0)
	}
	if err := router.SetRoot(policy.NewPolicySet("root").Combining(policy.FirstApplicable).Add(children...).Build()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reqs := []*policy.Request{policy.NewAccessRequest("u", "res-3", "read")}
	out := make([]policy.Result, 1)
	route := func() { router.DecideScatterAt(ctx, reqs, nil, testEpoch, nil, out) }
	route()
	if out[0].Decision != policy.DecisionPermit {
		t.Fatalf("warm-up decision = %v (%v)", out[0].Decision, out[0].Err)
	}
	if allocs := testing.AllocsPerRun(200, route); allocs != 0 {
		t.Fatalf("routed single-key decision allocates %.1f objects/op, want 0", allocs)
	}
	if st := router.EngineStats(); st.CompiledEvaluations == 0 || st.CompiledEvaluations != st.Evaluations {
		t.Fatalf("guard did not stay on the compiled path: %d/%d evaluations compiled",
			st.CompiledEvaluations, st.Evaluations)
	}
}
