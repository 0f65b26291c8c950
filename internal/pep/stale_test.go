package pep

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/resilience"
)

// outageProvider permits until broken, then answers Indeterminate — an
// unreachable PDP as the enforcer sees it.
type outageProvider struct {
	broken bool
}

func (p *outageProvider) DecideAt(context.Context, *policy.Request, time.Time) policy.Result {
	if p.broken {
		return policy.Result{Decision: policy.DecisionIndeterminate,
			Err: errors.New("pdp unreachable")}
	}
	return policy.Result{Decision: policy.DecisionPermit, By: "p"}
}

func (p *outageProvider) DecideBatchAt(ctx context.Context, reqs []*policy.Request, at time.Time) []policy.Result {
	out := make([]policy.Result, len(reqs))
	for i, req := range reqs {
		out[i] = p.DecideAt(ctx, req, at)
	}
	return out
}

// TestEnforcerServeStale: an enforcer over a resilience.StaleCache enforces
// the Degraded permit the cache serves for a warm key while the PDP is
// down, keeps cold keys and over-grace keys fail-closed, and never caches
// a Degraded decision itself — that would let it outlive the grace bound.
func TestEnforcerServeStale(t *testing.T) {
	provider := &outageProvider{}
	t0 := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	stale := resilience.NewStaleCache(provider, &resilience.Policy{StaleGrace: 30 * time.Second})
	e := NewEnforcer("pep", stale, WithDecisionCache(time.Second, 0))
	warm := policy.NewAccessRequest("alice", "ward", "read")
	cold := policy.NewAccessRequest("bob", "ward", "read")

	if out := e.EnforceAt(context.Background(), warm, t0); !out.Allowed {
		t.Fatalf("healthy enforcement = %+v, want allowed", out)
	}

	// The PDP dies and the cached permit's TTL lapses: the grace window
	// keeps the warm key allowed, the cold key stays fail-closed.
	provider.broken = true
	at := t0.Add(5 * time.Second)
	if out := e.EnforceAt(context.Background(), warm, at); !out.Allowed {
		t.Fatalf("degraded enforcement = %+v, want allowed from stale permit", out)
	}
	queries := e.Stats().DecisionQueries
	if out := e.EnforceAt(context.Background(), warm, at.Add(time.Millisecond)); !out.Allowed {
		t.Fatalf("second degraded enforcement = %+v, want allowed", out)
	}
	if got := e.Stats().DecisionQueries; got != queries+1 {
		t.Fatalf("a Degraded permit was answered from the enforcer cache (%d queries, want %d)", got, queries+1)
	}
	if out := e.EnforceAt(context.Background(), cold, at); out.Allowed || !errors.Is(out.Err, ErrNotPermitted) {
		t.Fatalf("cold-key enforcement = %+v, want fail-closed", out)
	}

	// Beyond grace the warm key fails closed too.
	at = t0.Add(31 * time.Second)
	if out := e.EnforceAt(context.Background(), warm, at); out.Allowed {
		t.Fatalf("over-grace enforcement = %+v, want fail-closed", out)
	}
	if st := stale.Stats(); st.Served != 2 {
		t.Fatalf("stale stats = %+v, want 2 serves", st)
	}

	// Recovery: the outage's Indeterminates were never cached, so a healed
	// PDP immediately answers fresh.
	provider.broken = false
	if out := e.EnforceAt(context.Background(), warm, at); !out.Allowed {
		t.Fatalf("post-recovery enforcement = %+v, want allowed", out)
	}
}

// TestEnforcerServeStaleExpiredCaller: a dead caller context never earns a
// stale permit.
func TestEnforcerServeStaleExpiredCaller(t *testing.T) {
	provider := &outageProvider{}
	t0 := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	stale := resilience.NewStaleCache(provider, &resilience.Policy{StaleGrace: 30 * time.Second})
	e := NewEnforcer("pep", stale, WithDecisionCache(time.Second, 0))
	warm := policy.NewAccessRequest("alice", "ward", "read")
	e.EnforceAt(context.Background(), warm, t0)

	provider.broken = true
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out := e.EnforceAt(ctx, warm, t0.Add(5*time.Second)); out.Allowed {
		t.Fatalf("expired-caller enforcement = %+v, want fail-closed", out)
	}
}
