package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/ha"
	"repro/internal/pap"
	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xacml"
)

// record is a concurrency-safe event trace for schedule tests.
type record struct {
	mu    sync.Mutex
	names []string
}

func (r *record) add(name string) {
	r.mu.Lock()
	r.names = append(r.names, name)
	r.mu.Unlock()
}

func (r *record) mark(name string) chaos.Action {
	return func(context.Context) error {
		r.add(name)
		return nil
	}
}

func TestScheduleFiresInOrderAndSweepsInvariants(t *testing.T) {
	var rec record
	broken := false
	o := chaos.New(
		chaos.Event{At: 30 * time.Millisecond, Name: "second", Do: rec.mark("second")},
		chaos.Event{At: 10 * time.Millisecond, Name: "first", Do: rec.mark("first")},
		chaos.Event{At: 50 * time.Millisecond, Name: "break", Do: func(context.Context) error {
			rec.add("break")
			broken = true
			return nil
		}},
	)
	sweeps := 0
	o.Require(chaos.Invariant{Name: "not-broken", Check: func(context.Context) error {
		sweeps++
		if broken {
			return errors.New("system broken")
		}
		return nil
	}})
	rep := o.Run(context.Background())
	if want := []string{"first", "second", "break"}; fmt.Sprint(rec.names) != fmt.Sprint(want) {
		t.Fatalf("events fired as %v, want %v", rec.names, want)
	}
	// One sweep per event plus the final sweep.
	if sweeps != 4 {
		t.Fatalf("invariant swept %d times, want 4", sweeps)
	}
	if rep.Ok() {
		t.Fatal("report Ok despite violations")
	}
	// The violation is attributed to the event whose sweep caught it, and
	// the final sweep catches it again.
	if len(rep.Violations) != 2 || rep.Violations[0].After != "break" || rep.Violations[1].After != "<end>" {
		t.Fatalf("violations = %+v", rep.Violations)
	}
	if rep.String() == "" {
		t.Fatal("empty report rendering")
	}
}

func TestScheduleCleanRunIsOk(t *testing.T) {
	var rec record
	o := chaos.New(chaos.Event{At: 0, Name: "noop", Do: rec.mark("noop")})
	o.Require(chaos.Invariant{Name: "always", Check: func(context.Context) error { return nil }})
	if rep := o.Run(context.Background()); !rep.Ok() {
		t.Fatalf("clean run not Ok: %s", rep)
	}
}

func TestScheduleInterruptedByContext(t *testing.T) {
	o := chaos.New(chaos.Event{At: time.Hour, Name: "never"})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	rep := o.Run(ctx)
	if !rep.Interrupted || rep.Ok() || len(rep.Events) != 0 {
		t.Fatalf("interrupted run: %+v", rep)
	}
}

func TestEventErrorFailsReportButScheduleContinues(t *testing.T) {
	var rec record
	o := chaos.New(
		chaos.Event{At: 0, Name: "boom", Do: func(context.Context) error { return errors.New("no such replica") }},
		chaos.Event{At: 5 * time.Millisecond, Name: "repair", Do: rec.mark("repair")},
	)
	rep := o.Run(context.Background())
	if rep.Ok() {
		t.Fatal("failed event left report Ok")
	}
	if len(rec.names) != 1 || rec.names[0] != "repair" {
		t.Fatal("repair event did not fire after a failed injection")
	}
}

// testCluster builds a 2-shard, 2-replica failover router over the
// workload's policy base.
func testCluster(t *testing.T, wcfg workload.Config, clock func() time.Time) *cluster.Router {
	t.Helper()
	router, err := cluster.New("chaos-test", cluster.Config{
		Shards:   2,
		Replicas: 2,
		Strategy: ha.Failover,
		Clock:    clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(wcfg)
	if err := router.SetRoot(gen.PolicyBase("root")); err != nil {
		t.Fatal(err)
	}
	return router
}

// permitRequest is a warm request the workload base permits: user i reads
// a resource owned by their role.
func permitRequest(wcfg workload.Config, i int) *policy.Request {
	role := i % wcfg.Roles
	return policy.NewAccessRequest(workload.UserID(i), workload.ResourceID(role), "read").
		Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String(workload.RoleID(role)))
}

// pacedLoad decides warm workload requests against d at the workload's
// Poisson arrival rate until stop closes, each under a 250ms budget, and
// returns how many it decided and how many came back Indeterminate.
func pacedLoad(d policy.Decider, wcfg workload.Config, stop <-chan struct{}) (decided, indeterminate int) {
	gen := workload.NewGenerator(wcfg)
	for {
		select {
		case <-stop:
			return decided, indeterminate
		case <-time.After(gen.NextInterarrival()):
		}
		ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
		res := policy.Decide(ctx, d, gen.WarmRequest(), time.Time{})
		cancel()
		decided++
		if res.Decision == policy.DecisionIndeterminate {
			indeterminate++
		}
	}
}

// TestCrashFailoverUnderLiveLoad is the core composition: paced load in
// flight while the schedule crashes one replica per shard, stalls another,
// and repairs — failover must keep every decision conclusive and the
// probes identical throughout.
func TestCrashFailoverUnderLiveLoad(t *testing.T) {
	wcfg := workload.Config{
		Users: 200, Resources: 64, Roles: 8,
		MeanInterarrival: 300 * time.Microsecond, Seed: 5,
	}
	router := testCluster(t, wcfg, nil)

	shards := router.Shards()
	if len(shards) != 2 {
		t.Fatalf("shards = %v", shards)
	}
	rep0, err := router.Replicas(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := router.Replicas(shards[1])
	if err != nil {
		t.Fatal(err)
	}

	probe := &chaos.DecisionProbe{Target: router, Requests: []*policy.Request{
		permitRequest(wcfg, 0), permitRequest(wcfg, 1), permitRequest(wcfg, 2),
	}}
	if err := probe.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}

	o := chaos.New(
		chaos.Event{At: 40 * time.Millisecond, Name: "crash " + shards[0] + "/r0",
			Do: chaos.Crash(rep0[0])},
		chaos.Event{At: 90 * time.Millisecond, Name: "stall " + shards[1] + "/r0 20ms",
			Do: chaos.Stall(20*time.Millisecond, rep1[0])},
		chaos.Event{At: 160 * time.Millisecond, Name: "repair all",
			Do: chaos.Seq(chaos.Revive(rep0[0]), chaos.Stall(0, rep1[0]))},
		chaos.Event{At: 200 * time.Millisecond, Name: "verify recovery",
			Do: chaos.Check(probe.Recovered(time.Second))},
	)
	o.Require(probe.Unchanged(), chaos.FailClosed(router, permitRequest(wcfg, 3)))

	stop := make(chan struct{})
	type tally struct{ decided, indeterminate int }
	done := make(chan tally, 1)
	go func() {
		d, i := pacedLoad(router, wcfg, stop)
		done <- tally{d, i}
	}()
	chaosRep := o.Run(context.Background())
	close(stop)
	load := <-done

	if !chaosRep.Ok() {
		t.Fatalf("chaos report not Ok:\n%s", chaosRep)
	}
	if load.decided == 0 {
		t.Fatal("load run decided nothing")
	}
	// Failover absorbs a single-replica crash and a bounded stall: no
	// decision may fail under a 250ms budget.
	if load.indeterminate != 0 {
		t.Fatalf("%d of %d decisions Indeterminate under failover chaos", load.indeterminate, load.decided)
	}
	// The crashed replica must actually have been routed around.
	if rep0[0].Queries() == 0 || rep0[1].Queries() == 0 {
		t.Fatalf("replica queries %d/%d: failover path never exercised",
			rep0[0].Queries(), rep0[1].Queries())
	}
}

// networkTarget decides over one envelope exchange on an in-process
// wire.Network, so link partitions come from the network model instead of
// a real socket. Transport failures surface as Indeterminate, the same
// fail-closed contract as pdp.Client.
type networkTarget struct {
	net      *wire.Network
	from, to string
	budget   time.Duration // when positive, arms each exchange's virtual deadline
	serial   atomic.Int64
}

func (t *networkTarget) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, _ time.Time, _ policy.Resolver, out []policy.Result) {
	for i, req := range reqs {
		if positions == nil || slices.Contains(positions, i) {
			out[i] = t.decide(ctx, req)
		}
	}
}

func (t *networkTarget) decide(ctx context.Context, req *policy.Request) policy.Result {
	fail := func(err error) policy.Result {
		return policy.Result{Decision: policy.DecisionIndeterminate, Err: err}
	}
	body, err := xacml.MarshalRequestXML(req)
	if err != nil {
		return fail(err)
	}
	reply, err := t.net.Send(ctx, &wire.Call{}, &wire.Envelope{
		MessageID: fmt.Sprintf("%s-%d", t.from, t.serial.Add(1)),
		From:      t.from,
		To:        t.to,
		Action:    "pdp:decide",
		Timestamp: time.Now(),
		Deadline:  t.budget,
		Body:      body,
	})
	if err != nil {
		return fail(err)
	}
	if reply == nil {
		return fail(fmt.Errorf("empty reply from %s", t.to))
	}
	res, err := xacml.UnmarshalResponseXML(reply.Body)
	if err != nil {
		return fail(err)
	}
	return res
}

// wireNetwork serves the workload base from a "pdp" node behind a
// latency-per-hop simulated network with a "pep" node to send from.
func wireNetwork(t *testing.T, wcfg workload.Config, latency time.Duration) *wire.Network {
	t.Helper()
	gen := workload.NewGenerator(wcfg)
	engine := pdp.New("wire-test")
	if err := engine.SetRoot(gen.PolicyBase("root")); err != nil {
		t.Fatal(err)
	}
	net := wire.NewNetwork(latency, 1)
	net.Register("pep", func(context.Context, *wire.Call, *wire.Envelope) (*wire.Envelope, error) {
		return nil, nil
	})
	net.Register("pdp", pdp.Handler(engine))
	return net
}

func TestNetworkTargetDecidesOverWire(t *testing.T) {
	wcfg := workload.Config{Users: 10, Resources: 8, Roles: 2, Seed: 1}
	net := wireNetwork(t, wcfg, time.Millisecond)
	target := &networkTarget{net: net, from: "pep", to: "pdp"}
	req := permitRequest(wcfg, 0)
	if res := policy.Decide(context.Background(), target, req, time.Time{}); res.Decision != policy.DecisionPermit {
		t.Fatalf("decision over wire = %v (%v), want Permit", res.Decision, res.Err)
	}
	net.SetLink("pep", "pdp", wire.LinkProps{Down: true})
	res := policy.Decide(context.Background(), target, req, time.Time{})
	if res.Decision != policy.DecisionIndeterminate || !errors.Is(res.Err, wire.ErrUnreachable) {
		t.Fatalf("partitioned decision = %v (%v), want Indeterminate/unreachable", res.Decision, res.Err)
	}
	net.SetLink("pep", "pdp", wire.LinkProps{Latency: time.Millisecond})
	if res := policy.Decide(context.Background(), target, req, time.Time{}); res.Decision != policy.DecisionPermit {
		t.Fatalf("healed link decision = %v (%v), want Permit", res.Decision, res.Err)
	}
}

func TestNetworkTargetBudgetFailsClosed(t *testing.T) {
	wcfg := workload.Config{Users: 10, Resources: 8, Roles: 2, Seed: 1}
	net := wireNetwork(t, wcfg, 10*time.Millisecond) // 10ms per hop on the virtual clock
	target := &networkTarget{net: net, from: "pep", to: "pdp", budget: 5 * time.Millisecond}
	res := policy.Decide(context.Background(), target, permitRequest(wcfg, 0), time.Time{})
	if res.Decision != policy.DecisionIndeterminate || !errors.Is(res.Err, wire.ErrDeadline) {
		t.Fatalf("budget < link latency: %v (%v), want Indeterminate/deadline", res.Decision, res.Err)
	}
}

// TestPartitionViolationIsDetected proves the invariants are not vacuous:
// a strict recovery check while the partition is still live must be
// reported as a failed event, while the tolerant sweep accepts the
// fail-closed Indeterminate.
func TestPartitionViolationIsDetected(t *testing.T) {
	wcfg := workload.Config{Users: 10, Resources: 8, Roles: 2, Seed: 3}
	net := wireNetwork(t, wcfg, time.Millisecond)
	target := &networkTarget{net: net, from: "pep", to: "pdp"}

	probe := &chaos.DecisionProbe{Target: target, Requests: []*policy.Request{permitRequest(wcfg, 0)}}
	if err := probe.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}

	o := chaos.New(
		chaos.Event{At: 0, Name: "partition pep->pdp", Do: chaos.Partition(net, "pep", "pdp")},
		// Deliberately wrong: asserting recovery while the link is down.
		chaos.Event{At: 10 * time.Millisecond, Name: "premature recovery check",
			Do: chaos.Check(probe.Recovered(50 * time.Millisecond))},
		chaos.Event{At: 80 * time.Millisecond, Name: "heal",
			Do: chaos.Heal(net, "pep", "pdp", time.Millisecond)},
		chaos.Event{At: 90 * time.Millisecond, Name: "real recovery check",
			Do: chaos.Check(probe.Recovered(time.Second))},
	)
	o.Require(probe.Unchanged())

	rep := o.Run(context.Background())
	if rep.Ok() {
		t.Fatalf("premature recovery check passed through a live partition:\n%s", rep)
	}
	// The tolerant sweep must NOT have flagged the partition...
	if len(rep.Violations) != 0 {
		t.Fatalf("Unchanged flagged fail-closed Indeterminate as a violation: %+v", rep.Violations)
	}
	// ...the strict check scheduled mid-partition must have failed, and the
	// post-heal one must have passed.
	var premature, real *chaos.EventOutcome
	for i := range rep.Events {
		switch rep.Events[i].Name {
		case "premature recovery check":
			premature = &rep.Events[i]
		case "real recovery check":
			real = &rep.Events[i]
		}
	}
	if premature == nil || premature.Err == "" {
		t.Fatalf("mid-partition recovery check did not fail: %+v", premature)
	}
	if real == nil || real.Err != "" {
		t.Fatalf("post-heal recovery check failed: %+v", real)
	}
}

// leakyDecider ignores its context entirely — the bug FailClosed exists to
// catch.
type leakyDecider struct{}

func (leakyDecider) DecideScatterAt(_ context.Context, reqs []*policy.Request, positions []int, _ time.Time, _ policy.Resolver, out []policy.Result) {
	for i := range reqs {
		if positions == nil || slices.Contains(positions, i) {
			out[i] = policy.Result{Decision: policy.DecisionPermit}
		}
	}
}

func TestFailClosedInvariant(t *testing.T) {
	wcfg := workload.Config{Users: 10, Resources: 8, Roles: 2, Seed: 1}
	gen := workload.NewGenerator(wcfg)
	engine := pdp.New("fc-test")
	if err := engine.SetRoot(gen.PolicyBase("root")); err != nil {
		t.Fatal(err)
	}
	req := permitRequest(wcfg, 0)
	if err := chaos.FailClosed(engine, req).Check(context.Background()); err != nil {
		t.Fatalf("engine leaks on expired budget: %v", err)
	}
	if err := chaos.FailClosed(leakyDecider{}, req).Check(context.Background()); err == nil {
		t.Fatal("leaky decider passed the fail-closed invariant")
	}
}

// staleDecider always answers Degraded with a fixed age — the layer-level
// contract StalenessBounded patrols.
type staleDecider struct{ age time.Duration }

func (d staleDecider) DecideScatterAt(_ context.Context, reqs []*policy.Request, positions []int, _ time.Time, _ policy.Resolver, out []policy.Result) {
	for i := range reqs {
		if positions == nil || slices.Contains(positions, i) {
			out[i] = policy.Result{Decision: policy.DecisionPermit, Degraded: true, StaleFor: d.age}
		}
	}
}

func TestStalenessBoundedInvariant(t *testing.T) {
	wcfg := workload.Config{Users: 10, Resources: 8, Roles: 2, Seed: 1}
	req := permitRequest(wcfg, 0)
	const grace = 30 * time.Second
	if err := chaos.StalenessBounded(staleDecider{age: grace}, req, grace).Check(context.Background()); err != nil {
		t.Fatalf("at-bound degraded decision flagged: %v", err)
	}
	if err := chaos.StalenessBounded(staleDecider{age: grace + time.Nanosecond}, req, grace).Check(context.Background()); err == nil {
		t.Fatal("over-grace degraded decision passed the staleness invariant")
	}
	// Fresh answers — degraded mode off or the key warm — always pass.
	if err := chaos.StalenessBounded(leakyDecider{}, req, grace).Check(context.Background()); err != nil {
		t.Fatalf("fresh decision flagged: %v", err)
	}
}

// TestKill9WALRecoveryKeepsAckedWrites drives the durability contract
// in-process: writes acknowledged through a WAL-backed store must decide
// identically on an engine bootstrapped from the crashed directory.
func TestKill9WALRecoveryKeepsAckedWrites(t *testing.T) {
	dir := t.TempDir()
	lg, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	root := pap.Root{ID: "root", Combining: policy.DenyOverrides}
	refreshErr := func(err error) { t.Errorf("refresh: %v", err) }
	st := pap.NewStore("wal-chaos")
	engine := pdp.New("wal-chaos")
	if err := lg.Bootstrap(st); err != nil {
		t.Fatal(err)
	}
	if err := pap.Follow(engine, st, root, refreshErr); err != nil {
		t.Fatal(err)
	}

	const roles = 4
	acked := &chaos.AckedWrites{Target: engine}
	for i := 0; i < 8; i++ {
		pol := workload.ResourcePolicy(i, roles)
		if _, err := st.Put(pol); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		// Only acknowledged writes enter the ledger — exactly the WAL
		// contract under test.
		acked.Acknowledge(pol.EntityID(), permitRequest(workload.Config{Roles: roles}, i), policy.DecisionPermit)
	}
	if err := acked.Durable(0).Check(context.Background()); err != nil {
		t.Fatalf("ledger not in effect before crash: %v", err)
	}

	if err := lg.Crash(); err != nil { // kill -9: no flush, no goodbye
		t.Fatal(err)
	}

	recovered, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	st2 := pap.NewStore("wal-chaos-recovered")
	engine2 := pdp.New("wal-chaos-recovered")
	if err := recovered.Bootstrap(st2); err != nil {
		t.Fatal(err)
	}
	if err := pap.Follow(engine2, st2, root, refreshErr); err != nil {
		t.Fatal(err)
	}
	acked.Target = engine2
	if err := acked.Durable(0).Check(context.Background()); err != nil {
		t.Fatalf("acked write lost across kill-9: %v", err)
	}
	if acked.Len() != 8 {
		t.Fatalf("ledger length %d", acked.Len())
	}
}

// TestClockSkewKeepsDecisionsStable jumps the clock of a front decision
// cache and the cluster below it an hour forward mid-run, then two hours
// back: the forward step expires the cache wholesale, the backward one
// leaves entries with a negative age, and neither re-evaluation nor a hit
// on such an entry may change an answer.
func TestClockSkewKeepsDecisionsStable(t *testing.T) {
	wcfg := workload.Config{Users: 50, Resources: 32, Roles: 4, Seed: 7}
	clk := &chaos.Clock{}
	router, err := cluster.New("skew-test", cluster.Config{
		Shards:        2,
		Replicas:      1,
		Clock:         clk.Now,
		EngineOptions: []pdp.Option{pdp.WithClock(clk.Now)},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(wcfg)
	if err := router.SetRoot(gen.PolicyBase("root")); err != nil {
		t.Fatal(err)
	}
	front := resilience.NewFrontCache(router, 100*time.Millisecond, &resilience.Policy{Clock: clk.Now}, 1024)

	probe := &chaos.DecisionProbe{Target: front, Requests: []*policy.Request{
		permitRequest(wcfg, 0), permitRequest(wcfg, 1),
	}}
	if err := probe.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}

	o := chaos.New(
		chaos.Event{At: 10 * time.Millisecond, Name: "skew +1h", Do: chaos.SkewClock(clk, time.Hour)},
		chaos.Event{At: 20 * time.Millisecond, Name: "skew -2h", Do: chaos.SkewClock(clk, -2*time.Hour)},
	)
	o.Require(probe.Unchanged())
	if rep := o.Run(context.Background()); !rep.Ok() {
		t.Fatalf("decisions drifted under clock skew:\n%s", rep)
	}
	if off := clk.Offset(); off != -time.Hour {
		t.Fatalf("cumulative offset = %v, want -1h", off)
	}
	if d := time.Until(clk.Now().Add(time.Hour)); d < -time.Second || d > time.Second {
		t.Fatalf("skewed Now drifted from real time by %v beyond the offset", d)
	}
}

func TestSeqStopsAtFirstError(t *testing.T) {
	var rec record
	err := chaos.Seq(
		rec.mark("a"),
		func(context.Context) error { return errors.New("boom") },
		rec.mark("never"),
	)(context.Background())
	if err == nil || len(rec.names) != 1 {
		t.Fatalf("err=%v fired=%v", err, rec.names)
	}
}
