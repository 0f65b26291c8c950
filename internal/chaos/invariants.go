package chaos

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/policy"
)

// probeUntil decides req, retrying while the answer is Indeterminate until
// window elapses — the recovery grace every post-repair check needs (a
// just-restarted pdpd or a healing ensemble answers Indeterminate for a
// beat before it answers correctly).
func probeUntil(ctx context.Context, d policy.Decider, req *policy.Request, window time.Duration) policy.Result {
	deadline := time.Now().Add(window)
	for {
		res := policy.Decide(ctx, d, req, time.Time{})
		if res.Decision != policy.DecisionIndeterminate {
			return res
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return res
		}
		select {
		case <-time.After(25 * time.Millisecond):
		case <-ctx.Done():
		}
	}
}

// DecisionProbe pins a set of requests and their pre-chaos decisions, then
// asserts the system never answers them differently. Snapshot before the
// schedule; sweep Unchanged throughout; assert Recovered once repairs have
// landed.
//
// The split matters: mid-fault, Indeterminate is the *correct* fail-closed
// answer for an unreachable shard, so Unchanged tolerates it and only
// flags conclusive answers that differ — a wrong Permit/Deny is a safety
// violation no fault excuses. Recovered is the post-repair bar: every
// probe must answer conclusively and identically within the window.
type DecisionProbe struct {
	// Target is the decision surface probed.
	Target policy.Decider
	// Requests are the pinned probes; Snapshot records their decisions.
	Requests []*policy.Request

	baseline []policy.Decision
}

// Snapshot records the healthy-system decision for every probe request. It
// fails if any probe is Indeterminate — the baseline must be conclusive or
// the invariant proves nothing. Call once, before the schedule runs.
func (p *DecisionProbe) Snapshot(ctx context.Context) error {
	if p.Target == nil || len(p.Requests) == 0 {
		return fmt.Errorf("chaos: probe needs a target and at least one request")
	}
	p.baseline = make([]policy.Decision, len(p.Requests))
	for i, req := range p.Requests {
		res := policy.Decide(ctx, p.Target, req, time.Time{})
		if res.Decision == policy.DecisionIndeterminate {
			return fmt.Errorf("chaos: probe %d Indeterminate at snapshot (%v); baseline must be conclusive", i, res.Err)
		}
		p.baseline[i] = res.Decision
	}
	return nil
}

// Unchanged is the always-on safety sweep: any conclusive answer must
// equal the baseline. Indeterminate is tolerated (fail-closed is correct
// while a fault is live).
func (p *DecisionProbe) Unchanged() Invariant {
	return Invariant{
		Name: "decisions-unchanged",
		Check: func(ctx context.Context) error {
			if p.baseline == nil {
				return fmt.Errorf("chaos: probe swept before Snapshot")
			}
			for i, req := range p.Requests {
				res := policy.Decide(ctx, p.Target, req, time.Time{})
				if res.Decision == policy.DecisionIndeterminate {
					continue // fail-closed, not wrong
				}
				if res.Decision != p.baseline[i] {
					return fmt.Errorf("probe %d answered %v, baseline %v", i, res.Decision, p.baseline[i])
				}
			}
			return nil
		},
	}
}

// Recovered is the post-repair bar: within window, every probe answers
// conclusively and identically to the baseline. Schedule it after the
// last repair (chaos.Check turns it into an event action).
func (p *DecisionProbe) Recovered(window time.Duration) Invariant {
	return Invariant{
		Name: "decisions-recovered",
		Check: func(ctx context.Context) error {
			if p.baseline == nil {
				return fmt.Errorf("chaos: probe swept before Snapshot")
			}
			for i, req := range p.Requests {
				res := probeUntil(ctx, p.Target, req, window)
				if res.Decision == policy.DecisionIndeterminate {
					return fmt.Errorf("probe %d still Indeterminate %v after repair (%v)", i, window, res.Err)
				}
				if res.Decision != p.baseline[i] {
					return fmt.Errorf("probe %d answered %v post-recovery, baseline %v", i, res.Decision, p.baseline[i])
				}
			}
			return nil
		},
	}
}

// ackedWrite is one acknowledged admin write and the decision that proves
// it took effect.
type ackedWrite struct {
	id   string
	req  *policy.Request
	want policy.Decision
}

// AckedWrites is the durability ledger: every policy write the admin plane
// acknowledged, paired with a request whose decision proves the write is
// live. The WAL contract is that no entry here is ever lost — not by a
// crash, not by kill -9, not by recovery.
type AckedWrites struct {
	// Target is the decision surface the ledger verifies against.
	Target policy.Decider

	mu      sync.Mutex
	entries []ackedWrite
}

// Acknowledge records a write after (and only after) the admin plane
// acknowledged it. want is the decision req must yield once the write is
// in effect. Safe for concurrent use — churn workers call this live.
func (a *AckedWrites) Acknowledge(id string, req *policy.Request, want policy.Decision) {
	a.mu.Lock()
	a.entries = append(a.entries, ackedWrite{id: id, req: req, want: want})
	a.mu.Unlock()
}

// Len is the number of acknowledged writes on the ledger.
func (a *AckedWrites) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.entries)
}

func (a *AckedWrites) snapshot() []ackedWrite {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]ackedWrite(nil), a.entries...)
}

// Held is the always-on sweep form: a conclusive answer that contradicts
// an acknowledged write is a durability violation; Indeterminate is
// tolerated mid-fault.
func (a *AckedWrites) Held() Invariant {
	return Invariant{
		Name: "acked-writes-held",
		Check: func(ctx context.Context) error {
			for _, w := range a.snapshot() {
				res := policy.Decide(ctx, a.Target, w.req, time.Time{})
				if res.Decision == policy.DecisionIndeterminate {
					continue
				}
				if res.Decision != w.want {
					return fmt.Errorf("acked write %s: decision %v, want %v", w.id, res.Decision, w.want)
				}
			}
			return nil
		},
	}
}

// Durable is the post-recovery bar: within window, every acknowledged
// write must be provably in effect — conclusive and correct.
func (a *AckedWrites) Durable(window time.Duration) Invariant {
	return Invariant{
		Name: "acked-writes-durable",
		Check: func(ctx context.Context) error {
			for _, w := range a.snapshot() {
				res := probeUntil(ctx, a.Target, w.req, window)
				if res.Decision != w.want {
					return fmt.Errorf("acked write %s: decision %v (err %v) after recovery, want %v",
						w.id, res.Decision, res.Err, w.want)
				}
			}
			return nil
		},
	}
}

// StalenessBounded asserts the degraded-mode contract: a decision may be
// served stale (Degraded) only within the configured grace window — a
// StaleFor beyond grace means some layer's last-known-good cache leaked an
// entry the bound should have evicted. Fresh answers and fail-closed
// Indeterminates always pass; the invariant is meaningful while a fault
// holds a breaker open, and harmless to sweep at any time.
func StalenessBounded(d policy.Decider, req *policy.Request, grace time.Duration) Invariant {
	return Invariant{
		Name: "staleness-bounded",
		Check: func(ctx context.Context) error {
			res := policy.Decide(ctx, d, req, time.Time{})
			if !res.Degraded {
				return nil
			}
			if res.StaleFor > grace {
				return fmt.Errorf("degraded decision served %v stale, grace is %v", res.StaleFor, grace)
			}
			return nil
		},
	}
}

// FailClosed asserts an expired deadline budget can never leak a
// conclusive answer: a decision under an already-dead context must be
// Indeterminate. Swept after every event so no fault combination opens
// the gate.
func FailClosed(d policy.Decider, req *policy.Request) Invariant {
	return Invariant{
		Name: "fail-closed",
		Check: func(ctx context.Context) error {
			expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Millisecond))
			defer cancel()
			res := policy.Decide(expired, d, req, time.Time{})
			if res.Decision != policy.DecisionIndeterminate {
				return fmt.Errorf("expired budget yielded %v; must fail closed", res.Decision)
			}
			return nil
		},
	}
}

// Check adapts an invariant into an Action so a strict check (Recovered,
// Durable) can be scheduled as an event after the last repair instead of
// sweeping — mid-fault sweeps would fail it by design.
func Check(inv Invariant) Action {
	return func(ctx context.Context) error {
		if err := inv.Check(ctx); err != nil {
			return fmt.Errorf("%s: %w", inv.Name, err)
		}
		return nil
	}
}
