package pep

import (
	"context"
	"errors"
	"slices"
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

func (p *outageProvider) DecideScatterAt(_ context.Context, reqs []*policy.Request, positions []int, _ time.Time, _ policy.Resolver, out []policy.Result) {
	res := policy.Result{Decision: policy.DecisionPermit, By: "p"}
	if p.broken {
		res = policy.Result{Decision: policy.DecisionIndeterminate,
			Err: errors.New("pdp unreachable")}
	}
	for i := range reqs {
		if positions == nil || slices.Contains(positions, i) {
			out[i] = res
		}
	}
}

// TestEnforcerServeStale: an enforcer over a resilience.FrontCache enforces
// the Degraded permit the cache serves for a warm key while the PDP is
// down, keeps cold keys and over-grace keys fail-closed, and never
// answers a Degraded decision as a fresh hit — that would let it outlive
// the grace bound.
func TestEnforcerServeStale(t *testing.T) {
	provider := &outageProvider{}
	t0 := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	stale := resilience.NewFrontCache(provider, time.Second, &resilience.Policy{StaleGrace: 30 * time.Second}, 4096)
	e := NewEnforcer("pep", stale)
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
	if out := e.EnforceAt(context.Background(), warm, at.Add(time.Millisecond)); !out.Allowed {
		t.Fatalf("second degraded enforcement = %+v, want allowed", out)
	}
	if st := stale.Stats(); st.Hits != 0 || st.Served != 2 {
		t.Fatalf("stats = %+v: a Degraded permit was answered as a fresh hit (want 0 hits, 2 serves)", st)
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
	stale := resilience.NewFrontCache(provider, time.Second, &resilience.Policy{StaleGrace: 30 * time.Second}, 4096)
	e := NewEnforcer("pep", stale)
	warm := policy.NewAccessRequest("alice", "ward", "read")
	e.EnforceAt(context.Background(), warm, t0)

	provider.broken = true
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out := e.EnforceAt(ctx, warm, t0.Add(5*time.Second)); out.Allowed {
		t.Fatalf("expired-caller enforcement = %+v, want fail-closed", out)
	}
}
