package ha

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/pdp"
	"repro/internal/policy"
)

var testTime = time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)

func permitEngine(t *testing.T, name string) *pdp.Engine {
	t.Helper()
	e := pdp.New(name)
	root := policy.NewPolicySet(name + "-root").Combining(policy.PermitUnlessDeny).Build()
	if err := e.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	return e
}

func denyEngine(t *testing.T, name string) *pdp.Engine {
	t.Helper()
	e := pdp.New(name)
	root := policy.NewPolicySet(name + "-root").Combining(policy.DenyUnlessPermit).Build()
	if err := e.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	return e
}

func req() *policy.Request { return policy.NewAccessRequest("u", "r", "read") }

func TestFailableCrashAndRevive(t *testing.T) {
	r := NewFailable("r1", permitEngine(t, "p1"))
	decide := func() policy.Result {
		out := make([]policy.Result, 1)
		r.DecideScatterAt(context.Background(), []*policy.Request{req()}, nil, testTime, nil, out)
		return out[0]
	}
	if res := decide(); res.Decision != policy.DecisionPermit {
		t.Fatalf("up replica = %v", res.Decision)
	}
	r.SetDown(true)
	res := decide()
	if !errors.Is(res.Err, ErrUnavailable) {
		t.Fatalf("down replica err = %v", res.Err)
	}
	r.SetDown(false)
	if res := decide(); res.Decision != policy.DecisionPermit {
		t.Fatalf("revived replica = %v", res.Decision)
	}
	if r.Queries() != 3 {
		t.Errorf("Queries = %d, want 3", r.Queries())
	}
}

func TestFailoverSkipsDeadReplicas(t *testing.T) {
	r1 := NewFailable("r1", permitEngine(t, "p1"))
	r2 := NewFailable("r2", permitEngine(t, "p2"))
	r3 := NewFailable("r3", permitEngine(t, "p3"))
	ens := NewEnsemble("ens", Failover, r1, r2, r3)

	r1.SetDown(true)
	res := ens.DecideAt(context.Background(), req(), testTime)
	if res.Decision != policy.DecisionPermit {
		t.Fatalf("failover decision = %v (%v)", res.Decision, res.Err)
	}
	st := ens.Stats()
	if st.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", st.Failovers)
	}
	// r1 dead + r2 answered = 2 replica queries.
	if st.ReplicaQueries != 2 {
		t.Errorf("ReplicaQueries = %d, want 2", st.ReplicaQueries)
	}
}

func TestFailoverAllDown(t *testing.T) {
	r1 := NewFailable("r1", permitEngine(t, "p1"))
	r2 := NewFailable("r2", permitEngine(t, "p2"))
	ens := NewEnsemble("ens", Failover, r1, r2)
	r1.SetDown(true)
	r2.SetDown(true)
	res := ens.DecideAt(context.Background(), req(), testTime)
	if !errors.Is(res.Err, ErrAllReplicasDown) {
		t.Fatalf("want ErrAllReplicasDown, got %v", res.Err)
	}
	if st := ens.Stats(); st.Unavailable != 1 {
		t.Errorf("Unavailable = %d, want 1", st.Unavailable)
	}
}

func TestProbeReordersFailoverChain(t *testing.T) {
	r1 := NewFailable("r1", permitEngine(t, "p1"))
	r2 := NewFailable("r2", permitEngine(t, "p2"))
	ens := NewEnsemble("ens", Failover, r1, r2)
	r1.SetDown(true)
	if alive := ens.Probe(); alive != 1 {
		t.Fatalf("Probe alive = %d, want 1", alive)
	}
	// After probing, requests go straight to r2: no per-request failover
	// penalty.
	before := r1.Queries()
	for i := 0; i < 5; i++ {
		if res := ens.DecideAt(context.Background(), req(), testTime); res.Decision != policy.DecisionPermit {
			t.Fatal(res.Err)
		}
	}
	if r1.Queries() != before {
		t.Errorf("dead replica still probed %d times after reorder", r1.Queries()-before)
	}
	// Revive and re-probe: r1 serves again (order [r2, r1], r2 first).
	r1.SetDown(false)
	if alive := ens.Probe(); alive != 2 {
		t.Errorf("Probe alive = %d, want 2", alive)
	}
}

func TestQuorumMajority(t *testing.T) {
	// Two permit replicas, one stale deny replica: majority masks it.
	ens := NewEnsemble("ens", Quorum,
		NewFailable("r1", permitEngine(t, "p1")),
		NewFailable("r2", permitEngine(t, "p2")),
		NewFailable("r3", denyEngine(t, "p3")),
	)
	res := ens.DecideAt(context.Background(), req(), testTime)
	if res.Decision != policy.DecisionPermit {
		t.Fatalf("quorum = %v, want Permit by 2/3", res.Decision)
	}
	if st := ens.Stats(); st.Disagreements != 1 {
		t.Errorf("Disagreements = %d, want 1", st.Disagreements)
	}
}

func TestQuorumToleratesMinorityCrash(t *testing.T) {
	r3 := NewFailable("r3", permitEngine(t, "p3"))
	ens := NewEnsemble("ens", Quorum,
		NewFailable("r1", permitEngine(t, "p1")),
		NewFailable("r2", permitEngine(t, "p2")),
		r3,
	)
	r3.SetDown(true)
	res := ens.DecideAt(context.Background(), req(), testTime)
	if res.Decision != policy.DecisionPermit {
		t.Fatalf("quorum with 1 crash = %v (%v)", res.Decision, res.Err)
	}
}

func TestQuorumFailsWithoutMajority(t *testing.T) {
	r2 := NewFailable("r2", permitEngine(t, "p2"))
	r3 := NewFailable("r3", permitEngine(t, "p3"))
	ens := NewEnsemble("ens", Quorum,
		NewFailable("r1", permitEngine(t, "p1")),
		r2, r3,
	)
	r2.SetDown(true)
	r3.SetDown(true)
	res := ens.DecideAt(context.Background(), req(), testTime)
	if !errors.Is(res.Err, ErrNoQuorum) {
		t.Fatalf("want ErrNoQuorum, got %v", res.Err)
	}
	// A 1-of-3 answer set must never decide, even unanimously.
	if res.Decision != policy.DecisionIndeterminate {
		t.Errorf("decision = %v, want Indeterminate", res.Decision)
	}
}

func TestQuorumSplitVote(t *testing.T) {
	// 2 permit vs 2 deny in a 4-replica ensemble: no majority of 3.
	ens := NewEnsemble("ens", Quorum,
		NewFailable("r1", permitEngine(t, "p1")),
		NewFailable("r2", permitEngine(t, "p2")),
		NewFailable("r3", denyEngine(t, "p3")),
		NewFailable("r4", denyEngine(t, "p4")),
	)
	res := ens.DecideAt(context.Background(), req(), testTime)
	if !errors.Is(res.Err, ErrNoQuorum) {
		t.Fatalf("split vote: want ErrNoQuorum, got %v (%v)", res.Err, res.Decision)
	}
}

func TestEnsembleAsPEPProvider(t *testing.T) {
	// The ensemble drops into any place a single PDP fits (pep, rest and
	// capability declare this one-method contract).
	var provider interface {
		DecideAt(ctx context.Context, req *policy.Request, at time.Time) policy.Result
	} = NewEnsemble("ens", Failover,
		NewFailable("r1", permitEngine(t, "p1")))
	if res := provider.DecideAt(context.Background(), req(), testTime); res.Decision != policy.DecisionPermit {
		t.Errorf("provider = %v", res.Decision)
	}
}

func TestAvailabilityUnderCrashWindow(t *testing.T) {
	// A deterministic crash schedule: replica i is down during its
	// window; a 3-replica failover ensemble stays available throughout,
	// a single replica does not.
	r1 := NewFailable("r1", permitEngine(t, "p1"))
	r2 := NewFailable("r2", permitEngine(t, "p2"))
	r3 := NewFailable("r3", permitEngine(t, "p3"))
	ens := NewEnsemble("ens", Failover, r1, r2, r3)
	single := NewEnsemble("single", Failover, NewFailable("s1", permitEngine(t, "p4")))

	okEns, okSingle := 0, 0
	const steps = 100
	for i := 0; i < steps; i++ {
		at := testTime.Add(time.Duration(i) * time.Second)
		// Rolling crashes: each third of the timeline kills one replica.
		r1.SetDown(i < 33)
		r2.SetDown(i >= 33 && i < 66)
		r3.SetDown(i >= 66)
		single.replicas[0].SetDown(i%10 < 3) // 30% downtime

		if res := ens.DecideAt(context.Background(), req(), at); res.Decision == policy.DecisionPermit {
			okEns++
		}
		if res := single.DecideAt(context.Background(), req(), at); res.Decision == policy.DecisionPermit {
			okSingle++
		}
	}
	if okEns != steps {
		t.Errorf("replicated availability = %d/%d, want 100%%", okEns, steps)
	}
	if okSingle >= steps {
		t.Errorf("single replica availability = %d/%d, expected failures", okSingle, steps)
	}
}
