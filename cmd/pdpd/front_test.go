package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/pap"
	"repro/internal/pdp"
	"repro/internal/policy"
)

var frontEpoch = time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)

// TestFrontCacheAgesOverDownShardGroup: with a key's whole shard group
// down, the front cache answers it by its decision's age since
// evaluation — a fresh, non-Degraded hit within the TTL, Degraded from
// the TTL until the grace, Indeterminate from the grace on.
func TestFrontCacheAgesOverDownShardGroup(t *testing.T) {
	const ttl, grace = 10 * time.Second, 30 * time.Second
	router, err := buildDecisionPoint(2, 2, "failover", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	adm := testAdmin(t, router, testBase(4), analysis.ModeOff)
	front := adm.placeFront(ttl, grace)
	ctx := context.Background()
	warm := policy.NewAccessRequest("u", "res-1", "read")
	if res := policy.Decide(ctx, front, warm, frontEpoch); res.Decision != policy.DecisionPermit || res.Degraded {
		t.Fatalf("healthy decision = %+v, want fresh Permit", res)
	}
	reps, err := router.Replicas(router.Owner("res-1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		rep.SetDown(true)
	}

	for _, tc := range []struct {
		age      time.Duration
		want     policy.Decision
		degraded bool
	}{
		{ttl / 2, policy.DecisionPermit, false},
		{ttl, policy.DecisionPermit, true},
		{grace - time.Nanosecond, policy.DecisionPermit, true},
		{grace, policy.DecisionIndeterminate, false},
	} {
		res := policy.Decide(ctx, front, warm, frontEpoch.Add(tc.age))
		if res.Decision != tc.want || res.Degraded != tc.degraded {
			t.Fatalf("at age %v: %+v, want %v with Degraded %v", tc.age, res, tc.want, tc.degraded)
		}
		if res.Degraded && res.StaleFor != tc.age {
			t.Fatalf("at age %v: StaleFor %v, want the age since evaluation", tc.age, res.StaleFor)
		}
	}
	if st := front.Stats(); st.Hits != 1 || st.Served != 2 {
		t.Fatalf("stats = %+v, want 1 fresh hit and 2 stale serves", st)
	}
}

// TestFrontCacheHitsSurviveFailover: the front cache sits above the
// replicas, so a replica crash loses no cached decision: a warm key is
// still a fresh hit, and no replica is asked.
func TestFrontCacheHitsSurviveFailover(t *testing.T) {
	router, err := buildDecisionPoint(1, 2, "failover", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	adm := testAdmin(t, router, testBase(4), analysis.ModeOff)
	front := adm.placeFront(time.Hour, 0)
	warm := policy.NewAccessRequest("u", "res-1", "read")
	policy.Decide(context.Background(), front, warm, time.Time{})
	reps, err := router.Replicas(router.Owner("res-1"))
	if err != nil {
		t.Fatal(err)
	}
	reps[0].SetDown(true)
	queries := reps[0].Queries() + reps[1].Queries()
	if res := policy.Decide(context.Background(), front, warm, time.Time{}); res.Decision != policy.DecisionPermit || res.Degraded {
		t.Fatalf("after the failover = %+v, want the cached Permit", res)
	}
	if st, asked := front.Stats(), reps[0].Queries()+reps[1].Queries()-queries; st.Hits != 1 || asked != 0 {
		t.Fatalf("stats = %+v and %d replica queries, want 1 hit and none", st, asked)
	}
}

// TestFrontCacheExpiredBudgetFailsClosed: a caller whose budget is spent
// gets Indeterminate, even for a key the front cache holds fresh.
func TestFrontCacheExpiredBudgetFailsClosed(t *testing.T) {
	router, err := buildDecisionPoint(2, 2, "failover", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	adm := testAdmin(t, router, testBase(4), analysis.ModeOff)
	front := adm.placeFront(time.Hour, 2*time.Hour)
	warm := policy.NewAccessRequest("u", "res-1", "read")
	if res := policy.Decide(context.Background(), front, warm, frontEpoch); res.Decision != policy.DecisionPermit {
		t.Fatalf("warm-up = %+v, want Permit", res)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if res := policy.Decide(ctx, front, warm, frontEpoch.Add(time.Second)); res.Decision != policy.DecisionIndeterminate ||
		!errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("expired budget on a warm key = %+v, want Indeterminate with the deadline", res)
	}
	out := policy.DecideBatch(ctx, front, []*policy.Request{warm, warm}, frontEpoch.Add(time.Second))
	for p, res := range out {
		if res.Decision != policy.DecisionIndeterminate || res.Degraded {
			t.Fatalf("expired budget, batch position %d = %+v, want Indeterminate", p, res)
		}
	}
	if st := front.Stats(); st.Hits != 0 {
		t.Fatalf("stats = %+v: an expired caller was answered from the cache", st)
	}
}

// TestAdminWriteRevokesOnlyConstrainedKeys: an admin write retires the
// front cache's decisions for the resource keys of the policy's old and
// new version, and no others; a catch-all write retires them all.
func TestAdminWriteRevokesOnlyConstrainedKeys(t *testing.T) {
	router, err := buildDecisionPoint(2, 2, "failover", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	adm := testAdmin(t, router, testBase(4), analysis.ModeOff)
	front := adm.placeFront(time.Hour, 0)
	ctx := context.Background()
	reqs := make([]*policy.Request, 4)
	for i := range reqs {
		reqs[i] = policy.NewAccessRequest("u", fmt.Sprintf("res-%d", i), "read")
		if res := policy.Decide(ctx, front, reqs[i], time.Time{}); res.Decision != policy.DecisionPermit {
			t.Fatalf("res-%d = %+v, want Permit", i, res)
		}
	}

	// pol-res-1 moves to res-2: both keys lose their entries.
	moved := policy.NewPolicy("pol-res-1").Combining(policy.FirstApplicable).
		When(policy.MatchResourceID("res-2")).
		Rule(policy.Deny("moved").Build()).
		Build()
	if _, err := adm.store.Put(moved); err != nil {
		t.Fatal(err)
	}
	if st := front.Stats(); st.Entries != 2 {
		t.Fatalf("after the move: %+v, want res-0 and res-3 kept", st)
	}
	hits := front.Stats().Hits
	for i, want := range []policy.Decision{policy.DecisionPermit, policy.DecisionNotApplicable, policy.DecisionDeny, policy.DecisionPermit} {
		if res := policy.Decide(ctx, front, reqs[i], time.Time{}); res.Decision != want {
			t.Fatalf("res-%d after the move = %+v, want %v", i, res, want)
		}
	}
	if got := front.Stats().Hits - hits; got != 2 {
		t.Fatalf("%d hits after the move, want 2 (res-0 and res-3)", got)
	}

	catchAll := policy.NewPolicy("pol-any").Combining(policy.FirstApplicable).
		Rule(policy.Deny("no-writes").When(policy.MatchActionID("write")).Build()).
		Build()
	if _, err := adm.store.Put(catchAll); err != nil {
		t.Fatal(err)
	}
	if st := front.Stats(); st.Entries != 0 {
		t.Fatalf("after a catch-all write: %+v, want every entry retired", st)
	}
}

// TestFrontCacheMatchesUncachedEngine is the cached ≡ uncached oracle: one
// pap.Store feeds, through pap.Follow, both pdpd's served stack (the front
// cache over a 2×2 router) and one plain engine without a cache. A seeded
// schedule interleaves puts (a policy may move to another resource),
// deletes, a catch-all policy and requests at advancing virtual time, with
// a TTL longer than the run, so every repeated key is a fresh hit unless a
// write retired it. Every decision must match the engine's.
func TestFrontCacheMatchesUncachedEngine(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		if msg := runFrontOracle(t, seed, 300); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

// runFrontOracle plays one seeded schedule and returns the first
// disagreement, or "".
func runFrontOracle(t *testing.T, seed int64, steps int) string {
	rng := rand.New(rand.NewSource(seed))
	const resources, policies = 6, 4
	version := 0
	resourcePolicy := func(id string) policy.Evaluable {
		version++
		b := policy.NewPolicy(id).Combining(policy.FirstApplicable).
			When(policy.MatchResourceID(fmt.Sprintf("res-%d", rng.Intn(resources))))
		if rng.Intn(2) == 0 {
			b.Rule(policy.Permit(fmt.Sprintf("read-v%d", version)).When(policy.MatchActionID("read")).Build())
		}
		if rng.Intn(2) == 0 {
			b.Rule(policy.Deny(fmt.Sprintf("write-v%d", version)).When(policy.MatchActionID("write")).Build())
		}
		rest := policy.Permit
		if rng.Intn(2) == 0 {
			rest = policy.Deny
		}
		return b.Rule(rest(fmt.Sprintf("rest-v%d", version)).Build()).Build()
	}
	catchAll := func() policy.Evaluable {
		version++
		return policy.NewPolicy("pol-any").Combining(policy.FirstApplicable).
			Rule(policy.Deny(fmt.Sprintf("audit-v%d", version)).When(policy.MatchActionID("audit")).Build()).
			Build()
	}

	seedBase := policy.NewPolicySet("base").Combining(policy.DenyOverrides)
	for k := 0; k < policies; k++ {
		seedBase.Add(resourcePolicy(fmt.Sprintf("pol-%d", k)))
	}
	router, err := buildDecisionPoint(2, 2, "failover", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	adm := testAdmin(t, router, seedBase.Build(), analysis.ModeOff)
	front := adm.placeFront(time.Hour, 0)
	plain := pdp.New("plain")
	if err := pap.Follow(plain, adm.store, pap.Root{ID: "base", Combining: policy.DenyOverrides}, nil); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	at := frontEpoch
	actions := []string{"read", "write", "audit"}
	request := func() *policy.Request {
		return policy.NewAccessRequest(fmt.Sprintf("u%d", rng.Intn(2)),
			fmt.Sprintf("res-%d", rng.Intn(resources+1)), actions[rng.Intn(len(actions))])
	}
	for step := 0; step < steps; step++ {
		var err error
		switch op := rng.Intn(20); {
		case op < 3:
			_, err = adm.store.Put(resourcePolicy(fmt.Sprintf("pol-%d", rng.Intn(policies))))
		case op < 4:
			err = adm.store.Delete(fmt.Sprintf("pol-%d", rng.Intn(policies)))
		case op < 5:
			if adm.store.History("pol-any") > 0 && rng.Intn(2) == 0 {
				err = adm.store.Delete("pol-any")
			} else {
				_, err = adm.store.Put(catchAll())
			}
		case op < 7:
			at = at.Add(time.Duration(rng.Int63n(int64(10 * time.Second))))
		default:
			batch := make([]*policy.Request, 1+rng.Intn(4))
			for i := range batch {
				batch[i] = request()
			}
			got := []policy.Result{policy.Decide(ctx, front, batch[0], at)}
			if len(batch) > 1 {
				got = policy.DecideBatch(ctx, front, batch, at)
			}
			want := policy.DecideBatch(ctx, plain, batch, at)
			for i := range batch {
				if got[i].Decision != want[i].Decision || got[i].By != want[i].By {
					return fmt.Sprintf("step %d: %s %s %s: served %v by %q, uncached engine %v by %q",
						step, batch[i].SubjectID(), batch[i].ResourceID(), batch[i].ActionID(),
						got[i].Decision, got[i].By, want[i].Decision, want[i].By)
				}
			}
		}
		if err != nil && !errors.Is(err, pap.ErrNotFound) {
			t.Fatal(err)
		}
	}
	if front.Stats().Hits == 0 {
		return "no decision was a cache hit, so the schedule proves nothing"
	}
	return ""
}
