package ha

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/policy"
)

// slowUnavailable is a decision provider that takes its time and then
// reports unavailability — the slow-then-down primary (a replica whose
// host dies mid-GC-pause) that must not preempt an in-flight hedge.
type slowUnavailable struct {
	delay time.Duration
}

func (s *slowUnavailable) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, _ time.Time, _ policy.Resolver, out []policy.Result) {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
	fill(reqs, positions, out, policy.Result{Decision: policy.DecisionIndeterminate, Err: ErrUnavailable})
}

// hedged builds a failover ensemble over the replicas with a 5ms hedge.
func hedged(replicas ...*Failable) *Ensemble {
	ens := NewEnsemble("ens", Failover, replicas...)
	ens.SetHedge(5 * time.Millisecond)
	return ens
}

// TestHedgeBeatsStalledPrimary is the tail-cutting happy path: the
// preferred replica stalls, the hedge answers conclusively well before
// the stall elapses.
func TestHedgeBeatsStalledPrimary(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	r0 := NewFailable("r0", batchFixture(t, policy.DecisionPermit))
	r1 := NewFailable("r1", batchFixture(t, policy.DecisionPermit))
	const stall = 2 * time.Second
	r0.SetStall(stall)
	ens := hedged(r0, r1)

	reqs := batchRequests(3)
	out := make([]policy.Result, len(reqs))
	start := time.Now()
	ens.DecideScatterAt(context.Background(), reqs, nil, at, nil, out)
	if elapsed := time.Since(start); elapsed >= stall {
		t.Fatalf("hedged scatter took %v, should beat the %v stall", elapsed, stall)
	}
	if st := ens.Stats(); st.Hedges != int64(len(reqs)) || st.HedgeWins != int64(len(reqs)) {
		t.Fatalf("stats = %+v, want the hedge launched and won for every request", st)
	}
	for p, res := range out {
		if res.Decision != policy.DecisionPermit {
			t.Fatalf("position %d = %+v, want Permit from the hedge", p, res)
		}
	}
}

// TestHedgeWaitsForFailoverOnUnavailablePrimary: once a hedge is in
// flight, a slow primary that finally answers all-replicas-down must not
// preempt it — the hedge on the rest of the chain IS the failover walk
// the non-hedged path would perform, and abandoning it would turn a
// previously-successful failover into an Indeterminate. Every request was
// answered, so none counts as unavailable.
func TestHedgeWaitsForFailoverOnUnavailablePrimary(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	// Primary: unavailable, but only after 40ms — slow enough that the
	// hedge launches first, fast enough to finish before the hedge does.
	r0 := NewFailable("r0", &slowUnavailable{delay: 40 * time.Millisecond})
	r1 := NewFailable("r1", batchFixture(t, policy.DecisionPermit))
	r1.SetStall(150 * time.Millisecond)
	ens := hedged(r0, r1)

	reqs := batchRequests(2)
	out := make([]policy.Result, len(reqs))
	ens.DecideScatterAt(context.Background(), reqs, nil, at, nil, out)
	for p, res := range out {
		if res.Decision != policy.DecisionPermit {
			t.Fatalf("position %d = %+v, want the hedge's Permit, not the primary's unavailability", p, res)
		}
	}
	n := int64(len(reqs))
	if st := ens.Stats(); st.HedgeWins != n || st.Failovers != n || st.Unavailable != 0 {
		t.Fatalf("stats = %+v, want hedge wins counted as failovers too, and nothing unavailable", st)
	}
}

// TestHedgedDispatchCountsEachRequestOnce: however the hedged dispatch
// splits its walk, a request counts unavailable at most once, and only
// when no replica answered it.
func TestHedgedDispatchCountsEachRequestOnce(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name        string
		primary     func(t *testing.T) *Failable
		backupDown  bool
		unavailable int64
		failovers   int64
	}{
		// The primary fails fast; the ordinary walk over the rest answers.
		{"fast-down-primary", downReplica, false, 0, 3},
		// Both halves of the chain are exhausted, in either order.
		{"fast-down-both", downReplica, true, 3, 0},
		{"slow-down-both", func(*testing.T) *Failable {
			return NewFailable("r0", &slowUnavailable{delay: 40 * time.Millisecond})
		}, true, 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r1 := NewFailable("r1", batchFixture(t, policy.DecisionPermit))
			r1.SetDown(tc.backupDown)
			ens := hedged(tc.primary(t), r1)
			reqs := batchRequests(3)
			out := make([]policy.Result, len(reqs))
			ens.DecideScatterAt(context.Background(), reqs, nil, at, nil, out)
			for p, res := range out {
				if tc.backupDown != errors.Is(res.Err, ErrAllReplicasDown) {
					t.Fatalf("position %d = %+v (backup down: %v)", p, res, tc.backupDown)
				}
			}
			if st := ens.Stats(); st.Unavailable != tc.unavailable || st.Failovers != tc.failovers {
				t.Fatalf("stats = %+v, want Unavailable %d and Failovers %d", st, tc.unavailable, tc.failovers)
			}
		})
	}
}

func downReplica(t *testing.T) *Failable {
	r := NewFailable("r0", batchFixture(t, policy.DecisionPermit))
	r.SetDown(true)
	return r
}
