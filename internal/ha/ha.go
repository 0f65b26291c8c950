// Package ha provides the dependability mechanisms behind the paper's
// title: replicated Policy Decision Point ensembles that keep authorising
// under component failure. Two strategies are offered — ordered failover
// (try replicas until one answers, in one walk on the caller's goroutine)
// and quorum voting (majority of all replicas, which additionally masks a
// minority of corrupt or stale answers) — plus a health monitor that
// reorders failover chains away from dead replicas.
//
// Every decision takes one path: the scatter call (policy.Decider), which
// answers a selection of request positions into a caller-owned result
// buffer. A single decision is a one-position scatter, so failover order,
// the all-or-nothing replica rule, the majority rule and the
// failover/quorum trace annotations each exist once.
//
// Failure injection is first-class: replicas are wrapped in Failable
// handles that experiments crash and revive on a virtual-time schedule.
package ha

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
)

// Dependability errors, matched with errors.Is.
var (
	// ErrUnavailable reports a crashed or unreachable replica.
	ErrUnavailable = errors.New("ha: replica unavailable")
	// ErrAllReplicasDown reports a failover that exhausted its chain.
	ErrAllReplicasDown = errors.New("ha: all replicas down")
	// ErrNoQuorum reports a vote without a majority agreement.
	ErrNoQuorum = errors.New("ha: no quorum")
)

// Failable wraps a decision provider with a crash switch, the failure
// injection handle used by experiments E9, and a stall switch injecting
// per-decision latency — the slow-replica failure mode (a wedged disk, a
// GC-thrashing host, a saturated PIP backend) that deadlines exist to
// bound. A stalled replica blocks each decision for the stall duration or
// until the caller's context is done, whichever comes first.
type Failable struct {
	name  string
	inner policy.Decider
	down  atomic.Bool
	stall atomic.Int64 // nanoseconds injected per decision
	// Queries counts decision attempts routed to this replica.
	queries atomic.Int64
}

// NewFailable wraps a provider.
func NewFailable(name string, inner policy.Decider) *Failable {
	return &Failable{name: name, inner: inner}
}

// Name identifies the replica.
func (f *Failable) Name() string { return f.name }

// SetDown crashes or revives the replica.
func (f *Failable) SetDown(down bool) { f.down.Store(down) }

// Down reports the crash state.
func (f *Failable) Down() bool { return f.down.Load() }

// Queries reports how many decisions were attempted against this replica.
func (f *Failable) Queries() int64 { return f.queries.Load() }

// SetStall injects d of latency into every decision this replica answers;
// zero removes the injection. Unlike SetDown — which fails fast and lets
// failover skip the replica — a stalled replica is the pathological slow
// dependency: it holds the caller until the stall elapses or the caller's
// deadline fires.
func (f *Failable) SetStall(d time.Duration) { f.stall.Store(int64(d)) }

// stallFor blocks for the injected stall, aborting early when ctx is
// done. It reports the ctx error when the caller's deadline cut the stall
// short.
func (f *Failable) stallFor(ctx context.Context) error {
	d := time.Duration(f.stall.Load())
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Strategy selects how an ensemble combines its replicas.
type Strategy int

// Ensemble strategies.
const (
	// Failover queries replicas in (health-ordered) sequence and returns
	// the first available answer.
	Failover Strategy = iota + 1
	// Quorum queries every replica and returns the majority decision,
	// masking minority corruption at the cost of querying all.
	Quorum
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Failover:
		return "failover"
	case Quorum:
		return "quorum"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Stats counts ensemble activity for the availability experiments.
type Stats struct {
	// Requests counts decisions asked of the ensemble.
	Requests int64
	// Failovers counts requests that skipped at least one dead replica.
	Failovers int64
	// Unavailable counts requests no replica could answer.
	Unavailable int64
	// Disagreements counts quorum votes whose replicas split.
	Disagreements int64
	// ReplicaQueries counts individual replica decisions issued: the sum
	// of the replicas' Queries.
	ReplicaQueries int64
}

// counters is the lock-free mutable form of Stats: decision paths
// increment the fields without taking a lock, so an ensemble in the
// cluster hot path adds no per-decision critical section of its own
// (mirrors the PDP engine's atomic stat stripes).
type counters struct {
	requests, failovers, unavailable, disagreements atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Requests:      c.requests.Load(),
		Failovers:     c.failovers.Load(),
		Unavailable:   c.unavailable.Load(),
		Disagreements: c.disagreements.Load(),
	}
}

// Ensemble is a replicated decision provider. The replica set is fixed at
// construction and the failover order is published as an immutable slice
// behind an atomic pointer, so the decision paths are lock-free: they load
// the current order, query replicas, and bump atomic counters.
type Ensemble struct {
	name     string
	strategy Strategy
	replicas []*Failable // immutable after construction

	// order is the failover preference: deciders load it without locking,
	// Probe builds a reordered copy and swaps it in.
	order   atomic.Pointer[[]int]
	probeMu sync.Mutex // serializes Probe's read-modify-write of order
	stats   counters
}

// NewEnsemble builds an ensemble over the replicas.
func NewEnsemble(name string, strategy Strategy, replicas ...*Failable) *Ensemble {
	order := make([]int, len(replicas))
	for i := range order {
		order[i] = i
	}
	e := &Ensemble{name: name, strategy: strategy, replicas: replicas}
	e.order.Store(&order)
	return e
}

// Name identifies the ensemble.
func (e *Ensemble) Name() string { return e.name }

// Stats returns a snapshot of ensemble counters.
func (e *Ensemble) Stats() Stats {
	st := e.stats.snapshot()
	for _, r := range e.replicas {
		st.ReplicaQueries += r.Queries()
	}
	return st
}

// Probe health-checks every replica and moves dead ones to the back of the
// failover order, preserving relative preference among live replicas. It
// models the periodic heartbeat of a health monitor.
func (e *Ensemble) Probe() (alive int) {
	e.probeMu.Lock()
	defer e.probeMu.Unlock()
	cur := *e.order.Load()
	live := make([]int, 0, len(cur))
	var dead []int
	for _, idx := range cur {
		if e.replicas[idx].Down() {
			dead = append(dead, idx)
		} else {
			live = append(live, idx)
		}
	}
	next := append(live, dead...)
	e.order.Store(&next)
	return len(live)
}
