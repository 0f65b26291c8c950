package federation

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ha"
	"repro/internal/policy"
)

// stubDecider counts calls and returns a fixed result, standing in for a
// replicated ensemble.
type stubDecider struct {
	calls int64
	res   policy.Result
}

func (s *stubDecider) DecideScatterAt(_ context.Context, reqs []*policy.Request, positions []int, _ time.Time, _ policy.Resolver, out []policy.Result) {
	atomic.AddInt64(&s.calls, 1)
	for i := range reqs {
		if positions == nil || slices.Contains(positions, i) {
			out[i] = s.res
		}
	}
}

func TestUseDeciderReplacesAndRestoresDecisionSource(t *testing.T) {
	vo, a, _ := twoHospitalVO(t)
	req := recordReq("alice", "hospital-a")

	// Baseline: the built-in PDP permits alice.
	if out := vo.Request(context.Background(), "hospital-a", req, at); !out.Allowed {
		t.Fatalf("baseline refused: %v", out.Err)
	}

	// A replacement decider takes over the domain's decisions entirely.
	stub := &stubDecider{res: policy.Result{Decision: policy.DecisionDeny, By: "stub"}}
	a.UseDecider(stub)
	out := vo.Request(context.Background(), "hospital-a", req, at.Add(time.Second))
	if out.Allowed {
		t.Fatal("stub decider's deny was ignored")
	}
	if !errors.Is(out.Err, ErrDenied) || out.By != "stub" {
		t.Errorf("outcome = %+v, want deny by stub", out)
	}
	if atomic.LoadInt64(&stub.calls) != 1 {
		t.Errorf("stub decider calls = %d, want 1", stub.calls)
	}

	// nil restores the built-in PDP.
	a.UseDecider(nil)
	if out := vo.Request(context.Background(), "hospital-a", req, at.Add(2*time.Second)); !out.Allowed {
		t.Fatalf("restored PDP refused: %v", out.Err)
	}
}

func TestUseDeciderWithReplicatedEnsemble(t *testing.T) {
	// The dependability deployment: the domain decides through a failover
	// ensemble whose primary is crashed; traffic must keep flowing.
	vo, a, _ := twoHospitalVO(t)

	primary := ha.NewFailable("pdp-a-1", a.PDP)
	backup := ha.NewFailable("pdp-a-2", a.PDP)
	ens := ha.NewEnsemble("ens-a", ha.Failover, primary, backup)
	a.UseDecider(ens)

	primary.SetDown(true)
	out := vo.Request(context.Background(), "hospital-b", recordReq("bob", "hospital-b"), at)
	if !out.Allowed {
		t.Fatalf("cross-domain read through ensemble with crashed primary refused: %v", out.Err)
	}
	if got := ens.Stats().Failovers; got == 0 {
		t.Error("expected at least one failover")
	}
}

func TestCapabilityCertVerifiesAgainstVOTrust(t *testing.T) {
	vo, _, _ := twoHospitalVO(t)
	cert := vo.CapabilityCert()
	if cert == nil {
		t.Fatal("nil capability certificate")
	}
	if cert.Subject != vo.CASAddr() {
		t.Errorf("subject = %q, want %q", cert.Subject, vo.CASAddr())
	}
	if err := vo.Trust.VerifyChain(cert, nil, at); err != nil {
		t.Errorf("capability cert does not verify against VO trust: %v", err)
	}
}
