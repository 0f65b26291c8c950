// Package chaos composes the codebase's existing fault-injection seams —
// replica crash/revive and stalls (ha.Failable), wire partitions
// (wire.Network), kill -9 of a real process (Process), clock skew — into
// timed schedules that run while paced load is in flight, and checks the
// paper's safety contract after every event:
//
//   - no acknowledged policy write is ever lost (AckedWrites);
//   - decisions are identical before and after recovery (DecisionProbe);
//   - an expired deadline budget always fails closed to Indeterminate,
//     never leaks a Permit (FailClosed);
//   - a degraded answer is never staler than its grace (StalenessBounded).
//
// The orchestrator is deliberately dumb: a sorted list of named events on
// a relative timeline, each followed by an invariant sweep. Everything
// interesting lives in the seams (seams.go) and the invariants
// (invariants.go); cmd/loadd wires both under a real pdpd and its own
// kernel-paced load.
package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Action is one fault injection or repair step. Returning an error records
// the event as failed (the schedule still continues — later repair events
// must run even when an injection misfires).
type Action func(ctx context.Context) error

// Event is one scheduled step: at offset At from the start of Run, fire Do.
type Event struct {
	// At is the offset from Run's start; events fire in At order.
	At time.Duration
	// Name labels the event in the report, e.g. "crash shard-0/replica-0".
	Name string
	// Do injects or repairs the fault.
	Do Action
}

// Invariant is a named safety check swept after every event and once more
// at the end of the schedule. Check returns nil when the invariant holds.
type Invariant struct {
	Name string
	// Check probes the system; it must tolerate being called mid-fault
	// (use retry windows for recovery-shaped invariants).
	Check func(ctx context.Context) error
}

// EventOutcome records one fired event.
type EventOutcome struct {
	// Name and At echo the schedule entry.
	Name string
	At   time.Duration
	// FiredAt is the measured offset the action actually ran at.
	FiredAt time.Duration
	// Err is the action's failure, empty on success.
	Err string
}

// Violation records one failed invariant check.
type Violation struct {
	// Invariant names the failing check; After names the event whose sweep
	// caught it ("<end>" for the final sweep).
	Invariant string
	After     string
	Err       string
}

// Report is the outcome of one schedule run.
type Report struct {
	// Elapsed is the wall time of the whole schedule including sweeps.
	Elapsed time.Duration
	// Events lists every fired event in order.
	Events []EventOutcome
	// Violations lists every failed invariant check, in sweep order.
	Violations []Violation
	// Interrupted is set when ctx ended the run before the schedule did.
	Interrupted bool
}

// Ok reports a clean run: every event fired without error, every invariant
// held at every sweep, and the schedule ran to completion.
func (r *Report) Ok() bool {
	if r.Interrupted || len(r.Violations) > 0 {
		return false
	}
	for _, e := range r.Events {
		if e.Err != "" {
			return false
		}
	}
	return true
}

// String renders the human summary loadd logs after a chaos run.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d events in %v", len(r.Events), r.Elapsed.Round(time.Millisecond))
	if r.Interrupted {
		b.WriteString(" (interrupted)")
	}
	for _, e := range r.Events {
		fmt.Fprintf(&b, "\n  t=%-8v %s", e.FiredAt.Round(time.Millisecond), e.Name)
		if e.Err != "" {
			fmt.Fprintf(&b, " ERROR: %s", e.Err)
		}
	}
	if len(r.Violations) == 0 {
		b.WriteString("\n  invariants: all held")
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  VIOLATION %s after %s: %s", v.Invariant, v.After, v.Err)
	}
	return b.String()
}

// Orchestrator runs a fault schedule against a system under load.
type Orchestrator struct {
	events     []Event
	invariants []Invariant
}

// New builds an orchestrator over the given events; order of the argument
// list does not matter, the schedule sorts by At (stable for ties, so two
// events at the same offset fire in the order given).
func New(events ...Event) *Orchestrator {
	o := &Orchestrator{}
	o.Add(events...)
	return o
}

// Add appends events to the schedule.
func (o *Orchestrator) Add(events ...Event) {
	o.events = append(o.events, events...)
	sort.SliceStable(o.events, func(i, j int) bool { return o.events[i].At < o.events[j].At })
}

// Require registers invariants swept after every event and at the end.
func (o *Orchestrator) Require(invs ...Invariant) {
	o.invariants = append(o.invariants, invs...)
}

// Run executes the schedule: sleep to each event's offset, fire it, sweep
// every invariant, and finish with one more sweep after the last event.
// ctx cancellation stops the schedule (remaining events do not fire) and
// marks the report Interrupted.
func (o *Orchestrator) Run(ctx context.Context) *Report {
	rep := &Report{}
	start := time.Now()
	defer func() { rep.Elapsed = time.Since(start) }()

	for _, ev := range o.events {
		if wait := time.Until(start.Add(ev.At)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			rep.Interrupted = true
			return rep
		}
		out := EventOutcome{Name: ev.Name, At: ev.At, FiredAt: time.Since(start)}
		if ev.Do != nil {
			if err := ev.Do(ctx); err != nil {
				out.Err = err.Error()
			}
		}
		rep.Events = append(rep.Events, out)
		if o.sweep(ctx, rep, ev.Name) {
			rep.Interrupted = true
			return rep
		}
	}
	if o.sweep(ctx, rep, "<end>") {
		rep.Interrupted = true
	}
	return rep
}

// sweep checks every invariant, recording violations; reports ctx death.
func (o *Orchestrator) sweep(ctx context.Context, rep *Report, after string) (interrupted bool) {
	for _, inv := range o.invariants {
		if ctx.Err() != nil {
			return true
		}
		if err := inv.Check(ctx); err != nil {
			rep.Violations = append(rep.Violations, Violation{
				Invariant: inv.Name, After: after, Err: err.Error(),
			})
		}
	}
	return false
}
