// Package pep implements Policy Enforcement Points: the components that
// create a barrier around resources, intercept every access, obtain
// decisions, fulfil obligations and fail closed (Section 2.2 of the paper).
//
// The package covers the three authorisation decision query sequences the
// paper discusses:
//
//   - pull (policy-issuing, Fig. 3): Enforcer consults a decision provider
//     for every access; package rest deploys it over HTTP;
//   - push (capability-issuing, Fig. 2): PushEnforcer validates a
//     capability presented with the request;
//   - agent: Guard wraps a protected operation behind an Enforcer, the
//     proxy deployment of an enforcement point.
//
// Enforcement is deny-biased: anything but an explicit Permit — including
// Indeterminate decisions, unfulfillable obligations, and obligations with
// no registered handler — denies access.
package pep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/assertion"
	"repro/internal/capability"
	"repro/internal/policy"
)

// Enforcement errors, matched with errors.Is.
var (
	// ErrDenied reports an explicit Deny decision.
	ErrDenied = errors.New("pep: access denied")
	// ErrNotPermitted reports a NotApplicable or Indeterminate decision,
	// denied under the fail-closed bias.
	ErrNotPermitted = errors.New("pep: no permit decision")
	// ErrObligation reports a permit whose obligations could not be
	// fulfilled; the permit is discarded.
	ErrObligation = errors.New("pep: obligation not fulfilled")
)

// ObligationHandler performs one obligation before access is granted or
// denied. Returning an error vetoes a permit.
type ObligationHandler func(ob policy.FulfilledObligation, req *policy.Request) error

// Stats counts enforcement activity.
type Stats struct {
	// Requests counts accesses intercepted.
	Requests int64
	// Permitted and Denied count final outcomes after obligation
	// handling and bias.
	Permitted, Denied int64
	// DecisionQueries counts round-trips to the decision provider
	// (cache misses).
	DecisionQueries int64
	// CacheHits counts decisions served from the PEP-local cache.
	CacheHits int64
	// ObligationFailures counts permits discarded over obligations.
	ObligationFailures int64
}

// Outcome is the result of one enforcement.
type Outcome struct {
	// Allowed reports whether access proceeds.
	Allowed bool
	// Decision is the underlying decision.
	Decision policy.Decision
	// By identifies the deciding rule or policy.
	By string
	// Obligations are an allowed permit's obligations, every one of them
	// understood; a caller may discharge some after the access.
	Obligations []policy.FulfilledObligation
	// Err explains a refusal.
	Err error
}

// counters are the enforcement counters behind Stats, counted with
// atomics so an enforcement takes no lock.
type counters struct {
	requests, permitted, denied, queries, hits, obligationFailures atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Requests:           c.requests.Load(),
		Permitted:          c.permitted.Load(),
		Denied:             c.denied.Load(),
		DecisionQueries:    c.queries.Load(),
		CacheHits:          c.hits.Load(),
		ObligationFailures: c.obligationFailures.Load(),
	}
}

func (c *counters) count(permitted, obligationFailure bool) {
	if permitted {
		c.permitted.Add(1)
	} else {
		c.denied.Add(1)
	}
	if obligationFailure {
		c.obligationFailures.Add(1)
	}
}

// Enforcer is a pull-model enforcement point.
type Enforcer struct {
	name     string
	pdp      policy.Decider
	handlers map[string]ObligationHandler
	now      func() time.Time
	// cache is the PEP-local decision cache, nil when disabled.
	cache *policy.DecisionCache
	stats counters
}

// EnforcerOption configures an Enforcer.
type EnforcerOption func(*Enforcer)

// WithObligationHandler registers the handler for an obligation ID.
func WithObligationHandler(id string, h ObligationHandler) EnforcerOption {
	return func(e *Enforcer) { e.handlers[id] = h }
}

// WithDecisionCache enables a PEP-local decision cache, the message-saving
// mechanism of Section 3.2 (Woo & Lam): a policy.DecisionCache whose
// decisions serve while younger than ttl. maxItems <= 0 defaults to 4096.
// A decision is cached only when no FlushCache ran while it was being
// queried.
func WithDecisionCache(ttl time.Duration, maxItems int) EnforcerOption {
	return func(e *Enforcer) {
		if maxItems <= 0 {
			maxItems = 4096
		}
		e.cache = policy.NewDecisionCache(ttl, maxItems)
	}
}

// WithClock overrides the enforcement clock.
func WithClock(now func() time.Time) EnforcerOption {
	return func(e *Enforcer) { e.now = now }
}

// NewEnforcer builds a pull-model enforcement point over the decision
// provider: a local engine, a remote client, or a replicated ensemble. In
// the paper's architecture a decision is a network call to an autonomous
// authorisation service, so every query carries the enforcement point's
// context: a deadline or cancellation bounds the round-trip, and an
// out-of-time decision comes back Indeterminate — which the deny bias
// refuses. Losing the PDP, or merely being too slow, fails closed at the
// PEP.
func NewEnforcer(name string, pdp policy.Decider, opts ...EnforcerOption) *Enforcer {
	e := &Enforcer{
		name:     name,
		pdp:      pdp,
		handlers: make(map[string]ObligationHandler),
		now:      time.Now,
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Name identifies the enforcement point.
func (e *Enforcer) Name() string { return e.name }

// Stats returns a snapshot of enforcement counters.
func (e *Enforcer) Stats() Stats { return e.stats.snapshot() }

// FlushCache drops cached decisions, modelling a revocation push.
func (e *Enforcer) FlushCache() {
	if e.cache != nil {
		e.cache.Flush()
	}
}

// Enforce intercepts one access request and produces the final outcome,
// bounded by ctx.
func (e *Enforcer) Enforce(ctx context.Context, req *policy.Request) Outcome {
	return e.EnforceAt(ctx, req, e.now())
}

// EnforceAt enforces at an explicit time. ctx bounds the decision query: a
// deadline expiring mid-query surfaces as an Indeterminate decision, which
// the deny bias refuses. Decisions poisoned by an expired context are not
// cached — the next request with time to spare must be able to earn a real
// decision.
func (e *Enforcer) EnforceAt(ctx context.Context, req *policy.Request, at time.Time) Outcome {
	e.stats.requests.Add(1)
	var gen uint64
	if e.cache != nil {
		if res, _, ok, _ := e.cache.Get(req.CacheKey(), req.CacheKeyHash(), at); ok {
			e.stats.hits.Add(1)
			return e.finalize(req, res)
		}
		gen = e.cache.Generation()
	}
	res := policy.Decide(ctx, e.pdp, req, at)
	e.stats.queries.Add(1)
	if e.cache != nil && cacheable(res) {
		e.cache.Put(req.CacheKey(), req.CacheKeyHash(), "", res, at, gen)
	}
	return e.finalize(req, res)
}

// cacheable reports whether a decision may be cached: never an errored one
// (a healed PDP must be asked afresh) nor a Degraded one (it would outlive
// the grace bound its provider enforced).
func cacheable(res policy.Result) bool {
	return !res.Degraded && res.Err == nil
}

// finalize applies obligations and the deny bias to a raw decision.
func (e *Enforcer) finalize(req *policy.Request, res policy.Result) Outcome {
	out := Outcome{Decision: res.Decision, By: res.By}
	switch res.Decision {
	case policy.DecisionPermit:
		if err := e.fulfil(res.Obligations, req); err != nil {
			e.stats.count(false, true)
			out.Err = err
			return out
		}
		e.stats.count(true, false)
		out.Allowed, out.Obligations = true, res.Obligations
		return out
	case policy.DecisionDeny:
		// Deny-side obligations (e.g. alerting) run best-effort; their
		// failure cannot turn a deny into a permit.
		_ = e.fulfil(res.Obligations, req)
		e.stats.count(false, false)
		out.Err = fmt.Errorf("pep %s: denied by %s: %w", e.name, res.By, ErrDenied)
		return out
	default:
		e.stats.count(false, false)
		out.Err = fmt.Errorf("pep %s: decision %s: %w", e.name, res.Decision, ErrNotPermitted)
		if res.Err != nil {
			out.Err = fmt.Errorf("%w (cause: %v)", out.Err, res.Err)
		}
		return out
	}
}

// fulfil runs every obligation through its registered handler. An unknown
// obligation is a must-understand failure.
func (e *Enforcer) fulfil(obs []policy.FulfilledObligation, req *policy.Request) error {
	for _, ob := range obs {
		h, ok := e.handlers[ob.ID]
		if !ok {
			return fmt.Errorf("pep %s: no handler for obligation %q: %w", e.name, ob.ID, ErrObligation)
		}
		if err := h(ob, req); err != nil {
			return fmt.Errorf("pep %s: obligation %q: %v: %w", e.name, ob.ID, err, ErrObligation)
		}
	}
	return nil
}

// Guard is the agent-model deployment: it proxies a protected operation
// behind an enforcer.
type Guard struct {
	enforcer *Enforcer
}

// NewGuard wraps an enforcer as an agent in front of a service.
func NewGuard(e *Enforcer) *Guard { return &Guard{enforcer: e} }

// Do enforces the request and, when allowed, invokes the protected
// operation. ctx bounds the decision; the operation itself is the
// caller's to bound.
func (g *Guard) Do(ctx context.Context, req *policy.Request, op func() error) error {
	out := g.enforcer.Enforce(ctx, req)
	if !out.Allowed {
		return out.Err
	}
	return op()
}

// PushEnforcer is the push-model enforcement point of Fig. 2: it validates
// capabilities presented with requests instead of querying a PDP.
type PushEnforcer struct {
	name      string
	validator *capability.Validator
	now       func() time.Time
	stats     counters
}

// NewPushEnforcer builds a push-model enforcement point.
func NewPushEnforcer(name string, v *capability.Validator) *PushEnforcer {
	return &PushEnforcer{name: name, validator: v, now: time.Now}
}

// WithClock overrides the enforcement clock.
func (e *PushEnforcer) WithClock(now func() time.Time) *PushEnforcer {
	e.now = now
	return e
}

// Stats returns a snapshot of enforcement counters.
func (e *PushEnforcer) Stats() Stats { return e.stats.snapshot() }

// EnforceCapability validates the presented capability for the request's
// resource and action.
func (e *PushEnforcer) EnforceCapability(ctx context.Context, req *policy.Request, cap *assertion.Assertion) Outcome {
	return e.EnforceCapabilityAt(ctx, req, cap, e.now())
}

// EnforceCapabilityAt validates at an explicit time. Validation is local —
// no PDP round-trip — but the enforcement still honours the caller's
// context: a request whose deadline already passed is refused outright,
// keeping push- and pull-model enforcement uniformly fail-closed under
// time pressure.
func (e *PushEnforcer) EnforceCapabilityAt(ctx context.Context, req *policy.Request, cap *assertion.Assertion, at time.Time) Outcome {
	e.stats.requests.Add(1)
	if err := ctx.Err(); err != nil {
		e.stats.count(false, false)
		return Outcome{Decision: policy.DecisionIndeterminate,
			Err: fmt.Errorf("pep %s: context done before enforcement: %v: %w", e.name, err, ErrNotPermitted)}
	}
	if cap == nil {
		e.stats.count(false, false)
		return Outcome{Decision: policy.DecisionDeny,
			Err: fmt.Errorf("pep %s: no capability presented: %w", e.name, ErrNotPermitted)}
	}
	if err := e.validator.ValidateCapability(cap, req.ResourceID(), req.ActionID(), at); err != nil {
		e.stats.count(false, false)
		return Outcome{Decision: policy.DecisionDeny,
			Err: fmt.Errorf("pep %s: %v: %w", e.name, err, ErrDenied)}
	}
	if cap.Subject != req.SubjectID() {
		e.stats.count(false, false)
		return Outcome{Decision: policy.DecisionDeny,
			Err: fmt.Errorf("pep %s: capability subject %s does not match requester %s: %w",
				e.name, cap.Subject, req.SubjectID(), ErrDenied)}
	}
	e.stats.count(true, false)
	return Outcome{Allowed: true, Decision: policy.DecisionPermit, By: cap.Issuer}
}
