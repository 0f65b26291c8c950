package resilience

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/policy"
)

var staleSeed = flag.Int64("stale-seed", 0, "replay one TestStaleCacheProperty schedule (0 sweeps the fixed seeds)")

var errScriptedOutage = errors.New("scripted outage")

// scriptedProvider is the dependency below a FrontCache in the property
// test: each subject has a current verdict (its version is in By, so every
// fresh answer is distinguishable), a global outage switch turns every
// answer Indeterminate, and a subject may be set to answer Degraded — a
// remote PDP that itself served stale.
type scriptedProvider struct {
	verdict  map[string]policy.Decision
	version  map[string]int
	down     bool
	degraded map[string]time.Duration
}

func (p *scriptedProvider) answer(ctx context.Context, req *policy.Request) policy.Result {
	if err := ctx.Err(); err != nil {
		return policy.Result{Decision: policy.DecisionIndeterminate, Err: err}
	}
	sub := req.SubjectID()
	if age, ok := p.degraded[sub]; ok {
		return policy.Result{Decision: policy.DecisionPermit, By: "below", Degraded: true, StaleFor: age}
	}
	if p.down {
		return policy.Result{Decision: policy.DecisionIndeterminate, Err: errScriptedOutage}
	}
	return policy.Result{Decision: p.verdict[sub], By: fmt.Sprintf("%s@v%d", sub, p.version[sub])}
}

func (p *scriptedProvider) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, _ time.Time, _ policy.Resolver, out []policy.Result) {
	for i, req := range reqs {
		if positions == nil || slices.Contains(positions, i) {
			out[i] = p.answer(ctx, req)
		}
	}
}

// lastGood is the model's view of one key's last fresh conclusive answer
// and the time it was evaluated at.
type lastGood struct {
	res    policy.Result
	stored time.Time
}

// TestStaleCacheProperty drives a FrontCache over a seeded random schedule
// of outages, policy writes (InvalidateChange, one key's or a catch-all),
// clock steps, cancelled callers and Degraded answers from below,
// predicting every answer from a model of the decision table and checking
// the invariants:
//
//   - a key whose entry is younger than the TTL is answered from it,
//     never Degraded, and the hit does not restart its age;
//   - every Degraded result has StaleFor < grace, counted from evaluation;
//   - it equals the last fresh conclusive answer for that key since the
//     last write that constrains the key;
//   - a Degraded input is passed through, never re-stored, so its age
//     never resets;
//   - a dead caller never gets a cached or stale answer.
//
// A failure names its seed; -stale-seed N replays that schedule alone.
func TestStaleCacheProperty(t *testing.T) {
	seeds := []int64{*staleSeed}
	if *staleSeed == 0 {
		seeds = seeds[:0]
		for s := int64(1); s <= 300; s++ {
			seeds = append(seeds, s)
		}
	}
	var hits, served int64
	for _, seed := range seeds {
		msg, st := runStaleSchedule(seed, 200)
		if msg != "" {
			t.Fatalf("seed %d: %s\nreplay: go test ./internal/resilience -run TestStaleCacheProperty -stale-seed %d", seed, msg, seed)
		}
		hits, served = hits+st.Hits, served+st.Served
	}
	if len(seeds) > 1 && (hits == 0 || served == 0) {
		t.Fatalf("the schedules served %d fresh hits and %d stale answers: too little exercised", hits, served)
	}
}

// keyPolicy is a policy constraining only sub's resource, the unit of a
// keyed write.
func keyPolicy(sub string) policy.Evaluable {
	return policy.NewPolicy("p-" + sub).When(policy.MatchResourceID("res-" + sub)).
		Rule(policy.Permit("ok").Build()).Build()
}

// runStaleSchedule plays one seeded schedule and returns the first
// violation, or "", and the cache's counters.
func runStaleSchedule(seed int64, steps int) (string, FrontCacheStats) {
	const ttl, grace = 10 * time.Second, 30 * time.Second
	rng := rand.New(rand.NewSource(seed))
	subjects := []string{"s0", "s1", "s2", "s3", "s4"}
	below := &scriptedProvider{
		verdict:  make(map[string]policy.Decision),
		version:  make(map[string]int),
		degraded: make(map[string]time.Duration),
	}
	reqs := make(map[string]*policy.Request, len(subjects))
	for _, s := range subjects {
		below.verdict[s] = policy.DecisionPermit
		reqs[s] = policy.NewAccessRequest(s, "res-"+s, "read")
	}
	now := time.Unix(1_700_000_000, 0)
	// The five keys can never evict each other from 8192 entries.
	c := NewFrontCache(below, ttl, &Policy{StaleGrace: grace, Clock: func() time.Time { return now }}, 8192)
	model := make(map[string]lastGood)
	flip := func(sub string) {
		below.version[sub]++
		if below.verdict[sub] == policy.DecisionPermit {
			below.verdict[sub] = policy.DecisionDeny
		} else {
			below.verdict[sub] = policy.DecisionPermit
		}
	}

	// fresh reports the model's fresh hit for sub, if any.
	fresh := func(sub string) (policy.Result, bool) {
		m, ok := model[sub]
		if !ok || now.Sub(m.stored) >= ttl {
			return policy.Result{}, false
		}
		return m.res, true
	}
	// settle applies the rest of the decision table to one answer from
	// below and updates the model the way the cache must.
	settle := func(sub string, got policy.Result) policy.Result {
		if got.Decision != policy.DecisionIndeterminate {
			if got.Err == nil && !got.Degraded {
				model[sub] = lastGood{res: got, stored: now}
			}
			return got
		}
		m, ok := model[sub]
		if !ok {
			return got
		}
		if age := now.Sub(m.stored); age < grace {
			m.res.Degraded, m.res.StaleFor = true, age
			return m.res
		}
		delete(model, sub)
		return got
	}
	check := func(step int, sub string, dead bool, from, want, got policy.Result) string {
		if got.Degraded {
			switch {
			case got.StaleFor >= grace:
				return fmt.Sprintf("step %d %s: Degraded answer %v stale, grace %v", step, sub, got.StaleFor, grace)
			case dead:
				return fmt.Sprintf("step %d %s: dead caller served stale %+v", step, sub, got)
			case !from.Degraded && got.By == "below":
				return fmt.Sprintf("step %d %s: a Degraded answer from below was re-stored and served as %+v", step, sub, got)
			case !from.Degraded && model[sub].res.By != got.By:
				return fmt.Sprintf("step %d %s: served %+v, last good is %+v", step, sub, got, model[sub])
			}
		}
		if got.Decision != want.Decision || got.By != want.By || got.Degraded != want.Degraded ||
			got.StaleFor != want.StaleFor || !errors.Is(got.Err, want.Err) {
			return fmt.Sprintf("step %d %s: got %+v, want %+v (below answered %+v)", step, sub, got, want, from)
		}
		return ""
	}
	callerCtx := func() (context.Context, bool) {
		if rng.Intn(5) == 0 {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, true
		}
		return context.Background(), false
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op == 0:
			now = now.Add(time.Duration(rng.Int63n(int64(12 * time.Second))))
		case op == 1:
			below.down = !below.down
		case op == 2:
			// A policy write: the verdicts it constrains flip, then the
			// write is acknowledged to the cache. One write in four is a
			// catch-all.
			if rng.Intn(4) == 0 {
				for _, sub := range subjects {
					flip(sub)
				}
				c.InvalidateChange(nil, policy.NewPolicy("any").Rule(policy.Deny("no").Build()).Build())
				clear(model)
				break
			}
			sub := subjects[rng.Intn(len(subjects))]
			flip(sub)
			c.InvalidateChange(keyPolicy(sub), nil)
			delete(model, sub)
		case op == 3:
			sub := subjects[rng.Intn(len(subjects))]
			if _, ok := below.degraded[sub]; ok {
				delete(below.degraded, sub)
			} else {
				below.degraded[sub] = time.Duration(rng.Int63n(int64(grace) + 1))
			}
		default:
			// A single decision, or a batch settled as the cache settles
			// one: every position's fresh hit first, against the model as
			// it stood before the batch, then the misses in order.
			n := 1
			if op >= 7 {
				n = 1 + rng.Intn(4)
			}
			batch := make([]*policy.Request, n)
			subs := make([]string, n)
			for i := range batch {
				subs[i] = subjects[rng.Intn(len(subjects))]
				batch[i] = reqs[subs[i]]
			}
			ctx, dead := callerCtx()
			froms := policy.DecideBatch(ctx, below, batch, now)
			wants := make([]policy.Result, n)
			hit := make([]bool, n)
			for i := range batch {
				wants[i], hit[i] = fresh(subs[i])
			}
			for i := range batch {
				switch {
				case dead:
					wants[i] = froms[i]
				case !hit[i]:
					wants[i] = settle(subs[i], froms[i])
				}
			}
			got := []policy.Result{policy.Decide(ctx, c, batch[0], time.Time{})}
			if n > 1 {
				got = policy.DecideBatch(ctx, c, batch, time.Time{})
			}
			for i := range batch {
				if msg := check(step, subs[i], dead, froms[i], wants[i], got[i]); msg != "" {
					return fmt.Sprintf("position %d of %d: %s", i, n, msg), c.Stats()
				}
			}
		}
	}
	return "", c.Stats()
}

// TestStaleCacheBypassedByCallerResolver: an answer made through a
// caller-supplied resolver is neither remembered nor replaced, and no
// entry answers in its place. A permit decided that way must not be
// served to a caller without it, fresh or stale.
func TestStaleCacheBypassedByCallerResolver(t *testing.T) {
	below := &scriptedProvider{verdict: map[string]policy.Decision{"alice": policy.DecisionPermit}}
	c := NewFrontCache(below, time.Minute, &Policy{StaleGrace: 2 * time.Minute}, 8192)
	req := policy.NewAccessRequest("alice", "res", "read")
	caller := policy.ResolverFunc(func(context.Context, *policy.Request, policy.Category, string) (policy.Bag, error) {
		return nil, nil
	})
	out := make([]policy.Result, 1)
	c.DecideScatterAt(context.Background(), []*policy.Request{req}, nil, time.Time{}, caller, out)
	if out[0].Decision != policy.DecisionPermit {
		t.Fatalf("with the caller's resolver: %v, want Permit", out[0].Decision)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("stats = %+v: a caller-resolver answer was remembered", st)
	}
	below.down = true
	c.DecideScatterAt(context.Background(), []*policy.Request{req}, nil, time.Time{}, caller, out)
	if out[0].Decision != policy.DecisionIndeterminate || out[0].Degraded {
		t.Fatalf("outage with the caller's resolver: %+v, want the Indeterminate from below", out[0])
	}
	below.down = false
	policy.Decide(context.Background(), c, req, time.Time{})
	below.verdict["alice"] = policy.DecisionDeny
	c.DecideScatterAt(context.Background(), []*policy.Request{req}, nil, time.Time{}, caller, out)
	if out[0].Decision != policy.DecisionDeny {
		t.Fatalf("warm key with the caller's resolver: %+v, want the Deny from below", out[0])
	}
}
