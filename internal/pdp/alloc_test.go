//go:build !race

package pdp

import (
	"context"
	"testing"
	"time"

	"repro/internal/policy"
)

// TestCompiledMissDecideAllocsFree guards the compiled program's bound: a
// decision it answers performs zero heap allocations on the common path —
// pooled evaluation context, pooled candidate scratch, precomputed
// results. The engine caches nothing, so every decision below is a full
// compiled evaluation. Skipped under -race, whose instrumentation
// perturbs allocation accounting.
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
// request and result cells stay off the heap and the guard above measures
// the engine alone.
func decideOne(e *Engine, req *policy.Request, at time.Time) policy.Result {
	var out [1]policy.Result
	e.DecideScatterAt(context.Background(), []*policy.Request{req}, nil, at, nil, out[:])
	return out[0]
}
