package ha

import (
	"context"
	"strconv"
	"testing"
	"time"

	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/trace"
)

// TestDecideAtWithReachesBackupResolver is the path core.InstallReplicatedPDP
// gives federation: a per-call resolver threads through the failover walk
// to the backup's engine when the primary is down.
func TestDecideAtWithReachesBackupResolver(t *testing.T) {
	// Doctors may read; only the per-call resolver knows alice is one.
	root := policy.NewPolicySet("base").Combining(policy.DenyUnlessPermit).
		Add(policy.NewPolicy("doctors").Combining(policy.DenyUnlessPermit).
			Rule(policy.Permit("doctors-read").When(policy.MatchRole("doctor")).Build()).
			Build()).
		Build()
	var engines []*pdp.Engine
	var replicas []*Failable
	for _, name := range []string{"r0", "r1"} {
		e := pdp.New(name)
		if err := e.SetRoot(root); err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
		replicas = append(replicas, NewFailable(name, e))
	}
	replicas[0].SetDown(true)
	ens := NewEnsemble("ens", Failover, replicas...)
	doctor := policy.ResolverFunc(func(_ context.Context, _ *policy.Request, cat policy.Category, name string) (policy.Bag, error) {
		if cat == policy.CategorySubject && name == policy.AttrSubjectRole {
			return policy.Singleton(policy.String("doctor")), nil
		}
		return nil, nil
	})

	req := policy.NewAccessRequest("alice", "rec-1", "read")
	if res := decideWith(context.Background(), ens, req, testTime, doctor); res.Decision != policy.DecisionPermit {
		t.Fatalf("with the caller's resolver = %+v, want Permit from the backup", res)
	}
	if res := decideWith(context.Background(), ens, req, testTime, nil); res.Decision != policy.DecisionDeny {
		t.Fatalf("without a resolver = %+v, want Deny", res)
	}
	if got := engines[0].Stats().Evaluations; got != 0 {
		t.Errorf("downed primary's engine evaluated %d requests", got)
	}
	if got := engines[1].Stats().Evaluations; got != 2 {
		t.Errorf("backup engine evaluated %d requests, want 2", got)
	}
	if st := ens.Stats(); st.Failovers != 2 {
		t.Errorf("Failovers = %d, want 2", st.Failovers)
	}
}

// traced runs decide under a trace root the tracer would not head-sample,
// and returns the root's annotations once it ends, or nil when the trace
// was not force-kept.
func traced(decide func(ctx context.Context)) map[string]string {
	tracer := trace.NewTracer(trace.Options{Sample: 0})
	ctx, root := tracer.StartRoot(context.Background(), "test")
	decide(ctx)
	root.End()
	if tracer.Stats().KeptForced != 1 {
		return nil
	}
	attrs := make(map[string]string, len(root.Attrs))
	for _, a := range root.Attrs {
		attrs[a.Key] = a.Value
	}
	return attrs
}

// TestFailoverIsTraced: a decision that survived a dead primary carries
// the skip count and the replica that answered, and its trace is kept,
// whether it was a single decision or a batch.
func TestFailoverIsTraced(t *testing.T) {
	for _, tc := range []struct {
		name   string
		decide func(ctx context.Context, ens *Ensemble)
	}{
		{"single", func(ctx context.Context, ens *Ensemble) { policy.Decide(ctx, ens, req(), testTime) }},
		{"batch", func(ctx context.Context, ens *Ensemble) { policy.DecideBatch(ctx, ens, batchRequests(3), testTime) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r0 := NewFailable("r0", permitEngine(t, "p0"))
			r1 := NewFailable("r1", permitEngine(t, "p1"))
			r0.SetDown(true)
			ens := NewEnsemble("ens", Failover, r0, r1)
			attrs := traced(func(ctx context.Context) { tc.decide(ctx, ens) })
			if attrs == nil {
				t.Fatal("failover trace was not force-kept")
			}
			if attrs["ha.failover_skipped"] != "1" || attrs["ha.replica"] != "r1" {
				t.Fatalf("span attrs = %v, want ha.failover_skipped=1 ha.replica=r1", attrs)
			}
		})
	}
}

// TestSplitQuorumIsTraced: a split vote annotates how many replicas
// answered and how many distinct decisions they gave, with or without a
// majority, and keeps the trace.
func TestSplitQuorumIsTraced(t *testing.T) {
	for _, tc := range []struct {
		name            string
		permits, denies int
		noQuorum        bool
	}{
		{"masked-minority", 2, 1, false},
		{"no-majority", 2, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var replicas []*Failable
			for i := 0; i < tc.permits; i++ {
				replicas = append(replicas, NewFailable("p", permitEngine(t, "p")))
			}
			for i := 0; i < tc.denies; i++ {
				replicas = append(replicas, NewFailable("d", denyEngine(t, "d")))
			}
			ens := NewEnsemble("ens", Quorum, replicas...)
			attrs := traced(func(ctx context.Context) { policy.Decide(ctx, ens, req(), testTime) })
			if attrs == nil {
				t.Fatal("split-vote trace was not force-kept")
			}
			answered := strconv.Itoa(len(replicas))
			if attrs["ha.quorum_answered"] != answered || attrs["ha.quorum_votes"] != "2" {
				t.Fatalf("span attrs = %v, want ha.quorum_answered=%s ha.quorum_votes=2", attrs, answered)
			}
			if got := attrs["ha.error"] == ErrNoQuorum.Error(); got != tc.noQuorum {
				t.Fatalf("span attrs = %v, want ha.error set: %v", attrs, tc.noQuorum)
			}
		})
	}
}

// decideWith decides one request through d with a per-call resolver.
func decideWith(ctx context.Context, d policy.Decider, req *policy.Request, at time.Time, resolver policy.Resolver) policy.Result {
	out := make([]policy.Result, 1)
	d.DecideScatterAt(ctx, []*policy.Request{req}, nil, at, resolver, out)
	return out[0]
}
