// Package resilience provides the fault-handling building blocks that let
// the decision fabric survive the failures the chaos harness injects,
// instead of merely detecting them: circuit breakers around unreliable
// dependencies, adaptive admission control at ingress, and the one front
// decision cache, whose last-known-good entries back the degraded serving
// mode.
//
// The pieces compose into one overload story:
//
//   - A Breaker turns a dead dependency (crashed shard group, stalled PIP
//     backend) from a per-request deadline-budget timeout into one fast
//     local check. State is a single atomic word; the half-open probe is
//     claimed by compare-and-swap, so exactly one request tests a
//     recovering dependency while the rest keep failing fast. Outcomes are three-valued: OnSuccess, OnFailure,
//     and the neutral OnAbandon for calls killed by their own caller's
//     context, which returns a held probe token without moving the state;
//     a probe claim never reported at all ages out after a cooldown and
//     is reclaimed by the next Allow.
//
//   - An Admission controller sheds excess concurrency at ingress with an
//     AIMD limit, rejecting early with 503 + Retry-After while the caller
//     still has deadline budget to go elsewhere — instead of queueing the
//     request into certain expiry. Priorities are strict: Critical traffic
//     (admin-plane writes, health probes) is never shed before Decision
//     traffic. Only server-indicted completions (5xx, over-target latency)
//     shrink the limit; a client that hangs up releases neutrally, so a
//     burst of impatient callers cannot talk a healthy server into
//     shedding.
//
//   - A FrontCache, the one decision cache, decorates the decision
//     provider a deployment serves: it holds the last conclusive decision
//     per cache key with the time it was evaluated, answers a key fresh
//     within a TTL, and answers an Indeterminate (open breaker, replicas
//     down, dead PIP) for warm keys within a configurable grace window —
//     degraded (counted, audit logged, stamped degraded=true on the trace
//     span) but conclusive — while cold keys keep failing closed. A policy
//     write (InvalidateChange) retires the entries for the resources it
//     constrains. The store is one striped policy.DecisionCache.
//
// Fail-closed versus serve-stale, the decision table FrontCache
// implements, every age counted from the decision's evaluation:
//
//	caller ctx already expired    -> fail closed (Indeterminate), always
//	entry age < TTL               -> fresh hit, never Degraded
//	dependency up                 -> fresh decision, never stale
//	dependency down, warm key,
//	  entry age < grace           -> serve stale, Degraded=true
//	dependency down, cold key     -> fail closed (a breaker fails fast)
//	dependency down, entry aged
//	  grace or more               -> fail closed (staleness bound wins)
//	policy write constraining the
//	  key since the entry was put -> fail closed (revocation wins)
//
// A fresh hit answers first, so stale serving needs grace > TTL.
//
// Everything here is allocation-free and lock-free on its hot path
// (atomics, and the striped policy.DecisionCache) and takes an injectable
// clock, so the chaos and load tests drive it on virtual time.
package resilience

import (
	"errors"
	"time"
)

// ErrOpen reports a request short-circuited by an open circuit breaker:
// the dependency was recently observed dead, and the fast local failure
// stands in for the timeout the caller would otherwise pay. Matched with
// errors.Is; enforcement points treat it as an unavailability (deny-biased
// Indeterminate), and a FrontCache above may answer it last-known-good.
var ErrOpen = errors.New("resilience: circuit open")

// Policy bundles the resilience configuration a layered deployment (the
// cluster router, pdpd) threads through its construction. The zero value
// of each knob means "that mechanism off": a nil *Policy or a zero Policy
// adds no behaviour and no hot-path cost.
type Policy struct {
	// Breaker configures the per-dependency circuit breakers; a zero
	// value uses the defaults (see BreakerConfig).
	Breaker BreakerConfig
	// StaleGrace bounds degraded-mode staleness: a FrontCache may answer
	// an Indeterminate with a conclusive decision evaluated less than
	// StaleGrace ago, marked Degraded. Zero means it never does.
	StaleGrace time.Duration
	// Clock overrides time.Now for the breakers and staleness checks.
	Clock func() time.Time
}

// Now returns the policy clock, defaulting to time.Now.
func (p *Policy) Now() func() time.Time {
	if p != nil && p.Clock != nil {
		return p.Clock
	}
	return time.Now
}
