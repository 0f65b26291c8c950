package chaos

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ha"
	"repro/internal/wire"
)

// This file adapts the codebase's fault seams into schedule Actions. Each
// constructor returns a closure so a schedule reads as data:
//
//	chaos.New(
//	    chaos.Event{At: 10 * time.Second, Name: "crash shard-0/r0",
//	        Do: chaos.Crash(replica)},
//	    chaos.Event{At: 15 * time.Second, Name: "revive shard-0/r0",
//	        Do: chaos.Revive(replica)},
//	)

// Crash marks replicas down (ha.Failable.SetDown): decisions route around
// them via the ensemble's failover or quorum path.
func Crash(replicas ...*ha.Failable) Action {
	return func(context.Context) error {
		for _, r := range replicas {
			r.SetDown(true)
		}
		return nil
	}
}

// Revive brings crashed replicas back.
func Revive(replicas ...*ha.Failable) Action {
	return func(context.Context) error {
		for _, r := range replicas {
			r.SetDown(false)
		}
		return nil
	}
}

// Stall wedges replicas for d per decision (ha.Failable.SetStall) — the
// slow-replica, not-dead-yet failure mode that only deadline budgets can
// route around. Stall(0, ...) repairs.
func Stall(d time.Duration, replicas ...*ha.Failable) Action {
	return func(context.Context) error {
		for _, r := range replicas {
			r.SetStall(d)
		}
		return nil
	}
}

// Partition takes the from->to link down on the simulated network; traffic
// in the other direction is unaffected (asymmetric partitions are the
// nasty ones). Heal repairs with the given steady-state latency.
func Partition(net *wire.Network, from, to string) Action {
	return func(context.Context) error {
		net.SetLink(from, to, wire.LinkProps{Down: true})
		return nil
	}
}

// Heal restores the from->to link at the given latency.
func Heal(net *wire.Network, from, to string, latency time.Duration) Action {
	return func(context.Context) error {
		net.SetLink(from, to, wire.LinkProps{Latency: latency})
		return nil
	}
}

// Process is a controllable external process — a real pdpd under test.
// Kill must be immediate and graceless (SIGKILL; no flush, no goodbye),
// Restart must return once the process serves traffic again. cmd/loadd
// implements this over os/exec.
type Process interface {
	Kill() error
	Restart(ctx context.Context) error
}

// Kill9 kills the process without warning — the WAL durability test: every
// acknowledged write must survive into Restart's recovery.
func Kill9(p Process) Action {
	return func(context.Context) error { return p.Kill() }
}

// Restart brings a killed process back and waits until it serves.
func Restart(p Process) Action {
	return func(ctx context.Context) error { return p.Restart(ctx) }
}

// Clock is a skewable clock: Now returns real time plus an adjustable
// offset. Feed Clock.Now as cluster.Config.Clock (or pdp.WithClock) to
// test decision-cache TTLs and deadline math under clock jumps.
type Clock struct {
	offset atomic.Int64 // nanoseconds
}

// Now is the skewed clock reading; pass the method value as a func() time.Time.
func (c *Clock) Now() time.Time {
	return time.Now().Add(time.Duration(c.offset.Load()))
}

// Offset returns the current skew.
func (c *Clock) Offset() time.Duration {
	return time.Duration(c.offset.Load())
}

// Skew jumps the clock by delta (cumulative; negative jumps back).
func (c *Clock) Skew(delta time.Duration) {
	c.offset.Add(int64(delta))
}

// SkewClock returns an Action that jumps the clock by delta.
func SkewClock(c *Clock, delta time.Duration) Action {
	return func(context.Context) error {
		c.Skew(delta)
		return nil
	}
}

// Seq runs actions in order, stopping at the first error — for events that
// compose several seams (e.g. crash a replica and partition its link).
func Seq(actions ...Action) Action {
	return func(ctx context.Context) error {
		for i, a := range actions {
			if err := a(ctx); err != nil {
				return fmt.Errorf("chaos: step %d: %w", i+1, err)
			}
		}
		return nil
	}
}
