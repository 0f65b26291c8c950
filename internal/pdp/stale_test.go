package pdp_test

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/resilience"
)

// Bounded-staleness degraded mode is one layer, resilience.FrontCache,
// placed over whatever provider a deployment serves. These tests run the
// same table over the three kinds of outage below it: an engine whose
// information point broke, a router whose only shard group went down (its
// breaker then fails fast with ErrOpen), and a provider that simply stops
// answering — a PDP unreachable over the wire.

const staleGrace = 30 * time.Second

// toggleResolver serves a fixed role until broken, then fails every fetch.
type toggleResolver struct {
	broken atomic.Bool
}

func (r *toggleResolver) ResolveAttribute(_ context.Context, _ *policy.Request, _ policy.Category, _ string) (policy.Bag, error) {
	if r.broken.Load() {
		return nil, context.DeadlineExceeded
	}
	return policy.Singleton(policy.String("doctor")), nil
}

// outageProvider permits until broken, then answers Indeterminate.
type outageProvider struct {
	broken atomic.Bool
}

func (p *outageProvider) DecideScatterAt(_ context.Context, reqs []*policy.Request, positions []int, _ time.Time, _ policy.Resolver, out []policy.Result) {
	res := policy.Result{Decision: policy.DecisionPermit, By: "ok"}
	if p.broken.Load() {
		res = policy.Result{Decision: policy.DecisionIndeterminate, Err: errors.New("pdp unreachable")}
	}
	for i := range reqs {
		if positions == nil || slices.Contains(positions, i) {
			out[i] = res
		}
	}
}

// staleRoot permits doctors, a role only the resolver knows.
func staleRoot() policy.Evaluable {
	return policy.NewPolicySet("root").Combining(policy.DenyOverrides).
		Add(policy.NewPolicy("p").Combining(policy.FirstApplicable).
			Rule(policy.Permit("ok").When(policy.MatchRole("doctor")).Build()).
			Rule(policy.Deny("no").Build()).
			Build()).
		Build()
}

// staleShape is one provider under the FrontCache and its outage switch.
type staleShape struct {
	name string
	next policy.Decider
	down func(bool)
	// queries, when set, counts the work that reached the provider's
	// replicas: an open breaker must keep it still.
	queries func() int64
	// cooldown is how long the provider's own breaker keeps failing fast
	// after its dependency heals; zero means a healed dependency answers
	// at once.
	cooldown time.Duration
}

func staleShapes(t *testing.T, clock func() time.Time) []staleShape {
	t.Helper()
	resolver := &toggleResolver{}
	engine := pdp.New("engine", pdp.WithResolver(resolver))
	if err := engine.SetRoot(staleRoot()); err != nil {
		t.Fatal(err)
	}

	router, err := cluster.New("router", cluster.Config{
		Shards: 1, Clock: clock,
		EngineOptions: []pdp.Option{pdp.WithResolver(&toggleResolver{})},
		Resilience: &resilience.Policy{
			Breaker: resilience.BreakerConfig{Threshold: 1, Cooldown: time.Minute},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.SetRoot(staleRoot()); err != nil {
		t.Fatal(err)
	}
	reps, err := router.Replicas(router.Shards()[0])
	if err != nil {
		t.Fatal(err)
	}

	outage := &outageProvider{}
	return []staleShape{
		{name: "engine+resolver", next: engine, down: resolver.broken.Store},
		{name: "router+shard", next: router,
			down: func(d bool) {
				for _, rep := range reps {
					rep.SetDown(d)
				}
			},
			queries: func() int64 {
				var n int64
				for _, rep := range reps {
					n += rep.Queries()
				}
				return n
			},
			cooldown: time.Minute},
		{name: "unreachable", next: outage, down: outage.broken.Store},
	}
}

// auditCall is one observation of the FrontCache audit hook.
type auditCall struct {
	key   string
	age   time.Duration
	cause error
}

// TestStaleGraceServesLastKnownGood: a warm key serves its last conclusive
// decision while the dependency is down, aged exactly, while its age is
// under the grace bound and never at or past it; a cold key fails closed;
// the outage's Indeterminates are not remembered, so recovery is fresh;
// and the audit hook sees every stale serve.
func TestStaleGraceServesLastKnownGood(t *testing.T) {
	t0 := time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)
	now := t0
	clock := func() time.Time { return now }
	for _, sh := range staleShapes(t, clock) {
		t.Run(sh.name, func(t *testing.T) {
			now = t0
			stale := resilience.NewFrontCache(sh.next, 0, &resilience.Policy{StaleGrace: staleGrace, Clock: clock}, 8192)
			var audits []auditCall
			stale.SetAudit(func(key string, age time.Duration, cause error) {
				audits = append(audits, auditCall{key, age, cause})
			})
			ctx := context.Background()
			warm := policy.NewAccessRequest("alice", "ward", "read")
			cold := policy.NewAccessRequest("bob", "ward", "read")

			if res := policy.Decide(ctx, stale, warm, now); res.Decision != policy.DecisionPermit || res.Degraded {
				t.Fatalf("healthy decision = %+v, want fresh Permit", res)
			}

			sh.down(true)
			now = t0.Add(2 * time.Second)
			res := policy.Decide(ctx, stale, warm, now)
			if res.Decision != policy.DecisionPermit || !res.Degraded || res.StaleFor != 2*time.Second {
				t.Fatalf("degraded decision = %+v, want stale Permit aged exactly 2s", res)
			}
			var queries int64
			if sh.queries != nil {
				queries = sh.queries()
			}

			// A key never decided before the outage has no last known good.
			if res := policy.Decide(ctx, stale, cold, now); res.Decision != policy.DecisionIndeterminate || res.Degraded {
				t.Fatalf("cold-key decision = %+v, want fail-closed Indeterminate", res)
			}

			// One nanosecond short of the grace bound the entry still
			// serves; at the bound the bound wins.
			lastAge := staleGrace - time.Nanosecond
			now = t0.Add(lastAge)
			if res := policy.Decide(ctx, stale, warm, now); !res.Degraded || res.StaleFor != lastAge {
				t.Fatalf("in-bound decision = %+v, want StaleFor=%v", res, lastAge)
			}
			now = t0.Add(staleGrace)
			if res := policy.Decide(ctx, stale, warm, now); res.Decision != policy.DecisionIndeterminate || res.Degraded {
				t.Fatalf("at-grace decision = %+v, want fail-closed Indeterminate", res)
			}
			if sh.queries != nil && sh.queries() != queries {
				t.Fatalf("open breaker let %d queries reach the dead replicas", sh.queries()-queries)
			}

			if st := stale.Stats(); st.Served != 2 {
				t.Fatalf("stats = %+v, want 2 stale serves", st)
			}
			if len(audits) != 2 {
				t.Fatalf("audit hook saw %d serves, want 2", len(audits))
			}
			last := audits[1]
			if last.key != warm.CacheKey() || last.age != lastAge || last.cause == nil {
				t.Fatalf("audit hook saw %+v, want key %q, age %v and the replaced Indeterminate's error", last, warm.CacheKey(), lastAge)
			}
			if sh.queries != nil && !errors.Is(last.cause, resilience.ErrOpen) {
				t.Fatalf("audit cause = %v, want the open breaker", last.cause)
			}

			// Recovery: the outage's Indeterminates were not remembered,
			// so a healed dependency answers fresh at the grace instant
			// itself — or, behind a breaker, as soon as its cooldown lets
			// it.
			sh.down(false)
			now = now.Add(sh.cooldown)
			if res := policy.Decide(ctx, stale, warm, now); res.Decision != policy.DecisionPermit || res.Degraded {
				t.Fatalf("post-recovery decision = %+v, want fresh Permit", res)
			}
		})
	}
}

// TestStaleGraceBatchPath: in one failed batch, warm positions serve stale
// and cold positions fail closed — per position, not per batch.
func TestStaleGraceBatchPath(t *testing.T) {
	t0 := time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)
	now := t0
	clock := func() time.Time { return now }
	for _, sh := range staleShapes(t, clock) {
		t.Run(sh.name, func(t *testing.T) {
			now = t0
			stale := resilience.NewFrontCache(sh.next, 0, &resilience.Policy{StaleGrace: staleGrace, Clock: clock}, 8192)
			warm := policy.NewAccessRequest("alice", "ward", "read")
			cold := policy.NewAccessRequest("carol", "ward", "read")
			policy.DecideBatch(context.Background(), stale, []*policy.Request{warm}, time.Time{})

			sh.down(true)
			now = t0.Add(5 * time.Second)
			out := policy.DecideBatch(context.Background(), stale, []*policy.Request{warm, cold, warm}, time.Time{})
			for _, p := range []int{0, 2} {
				if !out[p].Degraded || out[p].Decision != policy.DecisionPermit || out[p].StaleFor != 5*time.Second {
					t.Fatalf("warm batch position %d = %+v, want stale Permit aged 5s", p, out[p])
				}
			}
			if out[1].Degraded || out[1].Decision != policy.DecisionIndeterminate {
				t.Fatalf("cold batch position = %+v, want fail-closed Indeterminate", out[1])
			}
		})
	}
}

// TestStaleGraceExpiredCallerFailsClosed: an already-dead caller context
// never earns a stale answer — ctx expiry is the caller's fault, not the
// dependency's.
func TestStaleGraceExpiredCallerFailsClosed(t *testing.T) {
	t0 := time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)
	now := t0
	clock := func() time.Time { return now }
	for _, sh := range staleShapes(t, clock) {
		t.Run(sh.name, func(t *testing.T) {
			now = t0
			stale := resilience.NewFrontCache(sh.next, 0, &resilience.Policy{StaleGrace: staleGrace, Clock: clock}, 8192)
			warm := policy.NewAccessRequest("alice", "ward", "read")
			policy.Decide(context.Background(), stale, warm, now)

			sh.down(true)
			now = t0.Add(2 * time.Second)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if res := policy.Decide(ctx, stale, warm, now); res.Degraded || res.Decision != policy.DecisionIndeterminate {
				t.Fatalf("expired-caller decision = %+v, want fail-closed Indeterminate", res)
			}
			if out := policy.DecideBatch(ctx, stale, []*policy.Request{warm}, now); out[0].Degraded || out[0].Decision != policy.DecisionIndeterminate {
				t.Fatalf("expired-caller batch position = %+v, want fail-closed Indeterminate", out[0])
			}
		})
	}
}

// TestStaleForCountsFromEvaluation pins what StaleFor measures when the
// front cache also answers fresh: the age since the decision was
// evaluated. A fresh hit within the TTL is not put again, so it does not
// restart the age, and no Degraded answer is ever grace or more past its
// evaluation.
func TestStaleForCountsFromEvaluation(t *testing.T) {
	t0 := time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)
	resolver := &toggleResolver{}
	engine := pdp.New("engine", pdp.WithResolver(resolver))
	if err := engine.SetRoot(staleRoot()); err != nil {
		t.Fatal(err)
	}
	front := resilience.NewFrontCache(engine, time.Second, &resilience.Policy{StaleGrace: staleGrace}, 8192)
	ctx := context.Background()
	warm := policy.NewAccessRequest("alice", "ward", "read")

	policy.Decide(ctx, front, warm, t0)
	// Half a second later the front cache answers fresh.
	if res := policy.Decide(ctx, front, warm, t0.Add(500*time.Millisecond)); res.Degraded || front.Stats().Hits != 1 {
		t.Fatalf("second decision = %+v, %+v: want a fresh hit", res, front.Stats())
	}

	resolver.broken.Store(true)
	res := policy.Decide(ctx, front, warm, t0.Add(2*time.Second))
	if !res.Degraded || res.StaleFor != 2*time.Second {
		t.Fatalf("degraded decision = %+v, want StaleFor 2s counted from the evaluation", res)
	}
	for _, age := range []time.Duration{staleGrace - time.Nanosecond, staleGrace, staleGrace + time.Second} {
		res := policy.Decide(ctx, front, warm, t0.Add(age))
		if res.Degraded && res.StaleFor >= staleGrace {
			t.Fatalf("at %v past evaluation: Degraded with StaleFor %v, grace %v", age, res.StaleFor, staleGrace)
		}
		if res.Degraded != (age < staleGrace) {
			t.Fatalf("at %v past evaluation: %+v, want Degraded only under the grace", age, res)
		}
	}
}
