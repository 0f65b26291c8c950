package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ha"
	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/resilience"
)

// dbReaders permits every request on resource "db".
func dbReaders() policy.Evaluable {
	return policy.NewPolicy("db-readers").Combining(policy.FirstApplicable).
		When(policy.MatchResourceID("db")).
		Rule(policy.Permit("ok").Build()).
		Build()
}

// resilienceRoot: "db" permits, every other resource denies via the
// deny-unless-permit root — every decision is conclusive, so warm keys
// always have a last known good to fall back on.
func resilienceRoot() policy.Evaluable {
	return policy.NewPolicySet("base").Combining(policy.DenyUnlessPermit).
		Add(dbReaders()).
		Build()
}

func resilienceCluster(t *testing.T, clock func() time.Time, res *resilience.Policy) *Router {
	t.Helper()
	router, err := New("c", Config{Shards: 1, Clock: clock, Resilience: res})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.SetRoot(resilienceRoot()); err != nil {
		t.Fatal(err)
	}
	return router
}

func downShard(t *testing.T, r *Router, down bool) []*ha.Failable {
	t.Helper()
	reps, err := r.Replicas(r.Shards()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		rep.SetDown(down)
	}
	return reps
}

// TestClusterBreakerDegradedMode walks the whole breaker lifecycle under a
// virtual clock: trip, fail fast and closed with ErrOpen — warm keys too,
// the router keeps no last known good — without touching the dead
// replicas, recover through the half-open probe.
func TestClusterBreakerDegradedMode(t *testing.T) {
	t0 := testEpoch
	now := t0
	clock := func() time.Time { return now }
	router := resilienceCluster(t, clock, &resilience.Policy{
		Breaker: resilience.BreakerConfig{Threshold: 3, Cooldown: time.Minute},
	})
	warm := policy.NewAccessRequest("alice", "db", "read")
	cold := policy.NewAccessRequest("alice", "ledger", "read")

	if res := policy.Decide(context.Background(), router, warm, t0); res.Decision != policy.DecisionPermit || res.Degraded {
		t.Fatalf("healthy decision = %+v, want fresh Permit", res)
	}

	reps := downShard(t, router, true)
	for i := 0; i < 3; i++ {
		res := policy.Decide(context.Background(), router, warm, now)
		if !errors.Is(res.Err, ha.ErrAllReplicasDown) {
			t.Fatalf("failure %d = %+v, want all-replicas-down", i, res)
		}
	}
	bs := router.BreakerStats()[router.Shards()[0]]
	if bs.State != resilience.StateOpen || bs.Opens != 1 {
		t.Fatalf("breaker after threshold = %+v, want open after one trip", bs)
	}

	// Open breaker: warm and cold keys alike fail fast and closed, naming
	// the shard, without touching the dead replicas.
	queriesBefore := reps[0].Queries()
	now = t0.Add(2 * time.Second)
	for _, req := range []*policy.Request{warm, cold} {
		res := policy.Decide(context.Background(), router, req, now)
		if res.Decision != policy.DecisionIndeterminate || !errors.Is(res.Err, resilience.ErrOpen) || res.Degraded {
			t.Fatalf("open-breaker decision on %s = %+v, want fail-fast ErrOpen", req.ResourceID(), res)
		}
		if !strings.Contains(res.Err.Error(), router.Shards()[0]) {
			t.Fatalf("open-breaker error %q does not name the shard", res.Err)
		}
	}
	if got := reps[0].Queries(); got != queriesBefore {
		t.Fatalf("open breaker touched the dead replica (%d -> %d queries)", queriesBefore, got)
	}
	if st := router.Stats(); st.DegradedRejects != 2 {
		t.Fatalf("stats = %+v, want 2 fail-fast rejects", st)
	}

	// Revive and pass the cooldown: the single half-open probe goes
	// through, succeeds, and closes the breaker.
	downShard(t, router, false)
	now = t0.Add(2 * time.Minute)
	res := policy.Decide(context.Background(), router, warm, now)
	if res.Decision != policy.DecisionPermit || res.Degraded {
		t.Fatalf("post-recovery decision = %+v, want fresh Permit", res)
	}
	bs = router.BreakerStats()[router.Shards()[0]]
	if bs.State != resilience.StateClosed || bs.Probes < 1 {
		t.Fatalf("breaker after recovery = %+v, want closed via probe", bs)
	}
}

// TestClusterBatchDegradedPositions: in one batch against an open breaker,
// every position fails fast with ErrOpen and counts as one reject.
func TestClusterBatchDegradedPositions(t *testing.T) {
	t0 := testEpoch
	now := t0
	router := resilienceCluster(t, func() time.Time { return now }, &resilience.Policy{
		Breaker: resilience.BreakerConfig{Threshold: 2, Cooldown: time.Minute},
	})
	warm1 := policy.NewAccessRequest("alice", "db", "read")
	warm2 := policy.NewAccessRequest("bob", "files", "read")
	cold := policy.NewAccessRequest("carol", "vault", "read")

	policy.DecideBatch(context.Background(), router, []*policy.Request{warm1, warm2}, t0)

	downShard(t, router, true)
	for i := 0; i < 2; i++ {
		policy.Decide(context.Background(), router, warm1, t0)
	}

	now = t0.Add(10 * time.Second)
	out := policy.DecideBatch(context.Background(), router, []*policy.Request{warm1, cold, warm2}, now)
	for p, res := range out {
		if res.Degraded || res.Decision != policy.DecisionIndeterminate || !errors.Is(res.Err, resilience.ErrOpen) {
			t.Fatalf("position %d = %+v, want fail-fast ErrOpen", p, res)
		}
	}
	if st := router.Stats(); st.DegradedRejects != 3 {
		t.Fatalf("stats = %+v, want one reject per position", st)
	}
}

// TestRevocationFailsClosed: a permission deleted before the outage
// must not come back as a Degraded Permit. The FrontCache over the router
// remembers the Permit; the delete, acknowledged with InvalidateChange,
// retires it, so the outage that follows fails closed.
func TestRevocationFailsClosed(t *testing.T) {
	t0 := testEpoch
	now := t0
	clock := func() time.Time { return now }
	router := resilienceCluster(t, clock, &resilience.Policy{
		Breaker: resilience.BreakerConfig{Threshold: 1, Cooldown: time.Minute},
	})
	stale := resilience.NewFrontCache(router, 0, &resilience.Policy{StaleGrace: 30 * time.Second, Clock: clock}, 8192)
	req := policy.NewAccessRequest("alice", "db", "read")
	if res := policy.Decide(context.Background(), stale, req, time.Time{}); res.Decision != policy.DecisionPermit {
		t.Fatalf("before revocation = %+v, want Permit", res)
	}

	if err := router.ApplyUpdate(pdp.Update{ID: "db-readers"}); err != nil {
		t.Fatal(err)
	}
	stale.InvalidateChange(dbReaders(), nil)
	downShard(t, router, true)
	now = t0.Add(time.Second)
	for i := 0; i < 2; i++ { // all replicas down, then breaker open
		res := policy.Decide(context.Background(), stale, req, time.Time{})
		if res.Decision != policy.DecisionIndeterminate || res.Degraded {
			t.Fatalf("decision %d after revocation and outage = %+v, want fail-closed Indeterminate", i, res)
		}
	}
	if st := stale.Stats(); st.Served != 0 || st.Entries != 0 {
		t.Fatalf("stale stats = %+v, want no serve and no entry (the write retired it)", st)
	}
}

// TestRevocationFailsClosedRace is the concurrent twin (run with
// -race): a writer flips "db-readers" between present (even versions,
// Permit) and deleted (odd, Deny), acknowledging each write with
// InvalidateChange, while readers decide through the FrontCache and the shard
// flaps down and up. With the bracketing of
// internal/pdp's TestStressDecideAgainstAdministration — a reader
// snapshots committed before its decision and started after it — a reader
// whose whole decision ran at one stable version must get that version's
// verdict or fail closed: never a Degraded answer from an earlier one.
func TestRevocationFailsClosedRace(t *testing.T) {
	const (
		readers = 4
		writes  = 300
	)
	router := resilienceCluster(t, nil, &resilience.Policy{
		Breaker: resilience.BreakerConfig{Threshold: 1, Cooldown: time.Millisecond},
	})
	stale := resilience.NewFrontCache(laggingRouter{router}, 0, &resilience.Policy{StaleGrace: time.Minute}, 8192)
	req := policy.NewAccessRequest("alice", "db", "read")

	var started, committed atomic.Int64
	var stop atomic.Bool
	var served atomic.Int64
	errs := make(chan string, readers)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				before := committed.Load()
				var res policy.Result
				if (i+w)%4 == 0 {
					res = policy.DecideBatch(context.Background(), stale, []*policy.Request{req}, time.Time{})[0]
				} else {
					res = policy.Decide(context.Background(), stale, req, time.Time{})
				}
				after := started.Load()
				if res.Degraded {
					served.Add(1)
				}
				if before != after || res.Decision == policy.DecisionIndeterminate {
					continue // a write overlapped, or the outage failed closed
				}
				want := policy.DecisionPermit
				if before%2 == 1 {
					want = policy.DecisionDeny
				}
				if res.Decision != want {
					errs <- fmt.Sprintf("at stable version %d got %+v, want %v", before, res, want)
					return
				}
			}
		}(w)
	}
	reps := downShard(t, router, false)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for down := false; !stop.Load(); down = !down {
			for _, rep := range reps {
				rep.SetDown(down)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	for v := 1; v <= writes; v++ {
		u := pdp.Update{ID: "db-readers"}
		if v%2 == 0 {
			u.Child = dbReaders()
		}
		started.Add(1)
		if err := router.ApplyUpdate(u); err != nil {
			t.Error(err)
			break
		}
		stale.InvalidateChange(nil, dbReaders()) // either version constrains only db
		committed.Add(1)
		time.Sleep(100 * time.Microsecond)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	t.Logf("%d degraded answers served across %d writes", served.Load(), writes)
}

// laggingRouter holds each answer briefly before the FrontCache settles
// it, so writes often land between a decision's evaluation and its
// settling — the window a generation read after dispatch, instead of
// before, would leak a pre-write verdict through.
type laggingRouter struct{ *Router }

func (l laggingRouter) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, at time.Time, resolver policy.Resolver, out []policy.Result) {
	defer time.Sleep(50 * time.Microsecond)
	l.Router.DecideScatterAt(ctx, reqs, positions, at, resolver, out)
}

// TestClusterBreakerNeutralOnCallerExpiry: a caller context that expires
// mid-dispatch proves nothing about the shard — it must neither close a
// half-open breaker (cancellation-heavy overload would flap a dead shard's
// breaker closed) nor leak the half-open probe token (which would wedge
// the breaker in fail-fast until the token ages out).
func TestClusterBreakerNeutralOnCallerExpiry(t *testing.T) {
	t0 := testEpoch
	now := t0
	router := resilienceCluster(t, func() time.Time { return now }, &resilience.Policy{
		Breaker: resilience.BreakerConfig{Threshold: 3, Cooldown: time.Minute},
	})
	warm := policy.NewAccessRequest("alice", "db", "read")

	reps := downShard(t, router, true)
	for i := 0; i < 3; i++ {
		policy.Decide(context.Background(), router, warm, now)
	}
	if bs := router.BreakerStats()[router.Shards()[0]]; bs.State != resilience.StateOpen {
		t.Fatalf("breaker = %+v after threshold failures, want open", bs)
	}

	// Revive the shard but make it pathologically slow, and pass the
	// cooldown: the next call is the half-open probe, and its caller's
	// deadline fires long before the stall elapses.
	downShard(t, router, false)
	for _, rep := range reps {
		rep.SetStall(30 * time.Second)
	}
	now = t0.Add(2 * time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	res := policy.Decide(ctx, router, warm, now)
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("stalled probe = %+v, want caller deadline expiry", res)
	}
	bs := router.BreakerStats()[router.Shards()[0]]
	if bs.State != resilience.StateHalfOpen {
		t.Fatalf("breaker = %+v after ctx-expired probe, want half-open (neutral)", bs)
	}

	// The token went back with OnAbandon: a patient caller is admitted as
	// the next probe immediately and closes the breaker.
	for _, rep := range reps {
		rep.SetStall(0)
	}
	res = policy.Decide(context.Background(), router, warm, now)
	if res.Decision != policy.DecisionPermit {
		t.Fatalf("post-expiry probe = %+v, want fresh Permit", res)
	}
	if bs := router.BreakerStats()[router.Shards()[0]]; bs.State != resilience.StateClosed {
		t.Fatalf("breaker = %+v after successful re-probe, want closed", bs)
	}
}

// TestClusterBreakerFlapping hammers a resilient cluster, behind a
// FrontCache, while a chaos goroutine flaps the shard's replicas, checking
// (under -race) that the breaker lifecycle, the stale layer and the router
// counters stay coherent, and that the cluster answers cleanly once the
// flapping stops.
func TestClusterBreakerFlapping(t *testing.T) {
	router := resilienceCluster(t, nil, &resilience.Policy{
		Breaker: resilience.BreakerConfig{Threshold: 2, Cooldown: 2 * time.Millisecond},
	})
	stale := resilience.NewFrontCache(router, 0, &resilience.Policy{StaleGrace: time.Minute}, 8192)
	warm := policy.NewAccessRequest("alice", "db", "read")
	policy.Decide(context.Background(), stale, warm, time.Time{})

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		down := false
		for !stop.Load() {
			down = !down
			downShard(t, router, down)
			time.Sleep(time.Millisecond)
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reqs := []*policy.Request{
				policy.NewAccessRequest("alice", "db", "read"),
				policy.NewAccessRequest("bob", "other", "read"),
			}
			for i := 0; i < 400; i++ {
				policy.Decide(context.Background(), stale, warm, time.Time{})
				policy.DecideBatch(context.Background(), stale, reqs, time.Time{})
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	downShard(t, router, false)
	time.Sleep(5 * time.Millisecond)
	deadline := time.Now().Add(time.Second)
	for {
		res := policy.Decide(context.Background(), stale, warm, time.Time{})
		if res.Decision == policy.DecisionPermit && !res.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never recovered after flapping: %+v", res)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
