package ha

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/pdp"
	"repro/internal/policy"
)

func batchFixture(t *testing.T, decision policy.Decision) *pdp.Engine {
	t.Helper()
	b := policy.NewPolicy("p").Combining(policy.FirstApplicable)
	if decision == policy.DecisionPermit {
		b.Rule(policy.Permit("r").Build())
	} else {
		b.Rule(policy.Deny("r").Build())
	}
	engine := pdp.New("e")
	if err := engine.SetRoot(b.Build()); err != nil {
		t.Fatal(err)
	}
	return engine
}

func batchRequests(n int) []*policy.Request {
	reqs := make([]*policy.Request, n)
	for i := range reqs {
		reqs[i] = policy.NewAccessRequest("u", "res", "read")
	}
	return reqs
}

func TestFailableDecideBatch(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	f := NewFailable("r0", batchFixture(t, policy.DecisionPermit))
	reqs := batchRequests(5)
	out := make([]policy.Result, len(reqs))
	f.DecideScatterAt(context.Background(), reqs, nil, at, nil, out)
	for _, res := range out {
		if res.Decision != policy.DecisionPermit {
			t.Fatalf("live replica: %s, want Permit", res.Decision)
		}
	}
	f.SetDown(true)
	f.DecideScatterAt(context.Background(), reqs, nil, at, nil, out)
	for _, res := range out {
		if !errors.Is(res.Err, ErrUnavailable) {
			t.Fatalf("crashed replica: %v, want ErrUnavailable", res.Err)
		}
	}
	if got := f.Queries(); got != 10 {
		t.Fatalf("Queries = %d, want 10", got)
	}
}

func TestEnsembleFailoverBatch(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	r0 := NewFailable("r0", batchFixture(t, policy.DecisionPermit))
	r1 := NewFailable("r1", batchFixture(t, policy.DecisionPermit))
	ens := NewEnsemble("ens", Failover, r0, r1)
	reqs := batchRequests(4)

	r0.SetDown(true)
	for _, res := range policy.DecideBatch(context.Background(), ens, reqs, at) {
		if res.Decision != policy.DecisionPermit {
			t.Fatalf("failover batch: %s, want Permit", res.Decision)
		}
	}
	st := ens.Stats()
	if st.Failovers != int64(len(reqs)) {
		t.Fatalf("Failovers = %d, want %d", st.Failovers, len(reqs))
	}

	r1.SetDown(true)
	for _, res := range policy.DecideBatch(context.Background(), ens, reqs, at) {
		if !errors.Is(res.Err, ErrAllReplicasDown) {
			t.Fatalf("dead ensemble batch: %v, want ErrAllReplicasDown", res.Err)
		}
	}
	if got := policy.DecideBatch(context.Background(), ens, nil, at); got != nil {
		t.Fatalf("empty batch returned %v", got)
	}
}

func TestEnsembleQuorumBatchMasksMinority(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	// Two replicas permit; one stale replica denies. The majority masks it.
	good0 := NewFailable("g0", batchFixture(t, policy.DecisionPermit))
	good1 := NewFailable("g1", batchFixture(t, policy.DecisionPermit))
	stale := NewFailable("stale", batchFixture(t, policy.DecisionDeny))
	ens := NewEnsemble("ens", Quorum, good0, good1, stale)

	reqs := batchRequests(3)
	for _, res := range policy.DecideBatch(context.Background(), ens, reqs, at) {
		if res.Decision != policy.DecisionPermit {
			t.Fatalf("quorum batch: %s, want Permit (minority masked)", res.Decision)
		}
	}
	if st := ens.Stats(); st.Disagreements != int64(len(reqs)) {
		t.Fatalf("Disagreements = %d, want %d", st.Disagreements, len(reqs))
	}

	// Losing a good replica drops the vote to 1-1: no quorum, fail closed.
	good1.SetDown(true)
	for _, res := range policy.DecideBatch(context.Background(), ens, reqs, at) {
		if !errors.Is(res.Err, ErrNoQuorum) {
			t.Fatalf("split vote: %v, want ErrNoQuorum", res.Err)
		}
	}
}
