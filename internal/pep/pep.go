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
	"sync"
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

type cacheEntry struct {
	res     policy.Result
	expires time.Time
}

// Enforcer is a pull-model enforcement point.
type Enforcer struct {
	name     string
	pdp      policy.Decider
	handlers map[string]ObligationHandler
	now      func() time.Time
	cacheTTL time.Duration
	cacheMax int

	mu    sync.Mutex
	cache map[string]cacheEntry
	stats Stats
}

// EnforcerOption configures an Enforcer.
type EnforcerOption func(*Enforcer)

// WithObligationHandler registers the handler for an obligation ID.
func WithObligationHandler(id string, h ObligationHandler) EnforcerOption {
	return func(e *Enforcer) { e.handlers[id] = h }
}

// WithDecisionCache enables a PEP-local decision cache, the message-saving
// mechanism of Section 3.2 (Woo & Lam). maxItems <= 0 defaults to 4096.
func WithDecisionCache(ttl time.Duration, maxItems int) EnforcerOption {
	return func(e *Enforcer) {
		if maxItems <= 0 {
			maxItems = 4096
		}
		e.cacheTTL = ttl
		e.cacheMax = maxItems
		e.cache = make(map[string]cacheEntry, 64)
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
func (e *Enforcer) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// FlushCache drops cached decisions, modelling a revocation push.
func (e *Enforcer) FlushCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cache != nil {
		e.cache = make(map[string]cacheEntry, 64)
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
	e.mu.Lock()
	e.stats.Requests++
	useCache := e.cache != nil
	var res policy.Result
	hit := false
	var key string
	if useCache {
		key = req.CacheKey()
		if entry, ok := e.cache[key]; ok && at.Before(entry.expires) {
			res = entry.res
			hit = true
			e.stats.CacheHits++
		}
	}
	e.mu.Unlock()

	if !hit {
		res = policy.Decide(ctx, e.pdp, req, at)
		e.mu.Lock()
		e.stats.DecisionQueries++
		if useCache && cacheable(res) {
			if len(e.cache) >= e.cacheMax {
				for k := range e.cache {
					delete(e.cache, k)
					break
				}
			}
			e.cache[key] = cacheEntry{res: res, expires: at.Add(e.cacheTTL)}
		}
		e.mu.Unlock()
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
			e.count(false, true)
			out.Err = err
			return out
		}
		e.count(true, false)
		out.Allowed, out.Obligations = true, res.Obligations
		return out
	case policy.DecisionDeny:
		// Deny-side obligations (e.g. alerting) run best-effort; their
		// failure cannot turn a deny into a permit.
		_ = e.fulfil(res.Obligations, req)
		e.count(false, false)
		out.Err = fmt.Errorf("pep %s: denied by %s: %w", e.name, res.By, ErrDenied)
		return out
	default:
		e.count(false, false)
		out.Err = fmt.Errorf("pep %s: decision %s: %w", e.name, res.Decision, ErrNotPermitted)
		if res.Err != nil {
			out.Err = fmt.Errorf("%w (cause: %v)", out.Err, res.Err)
		}
		return out
	}
}

func (e *Enforcer) count(permitted, obligationFailure bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if permitted {
		e.stats.Permitted++
	} else {
		e.stats.Denied++
	}
	if obligationFailure {
		e.stats.ObligationFailures++
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

	mu    sync.Mutex
	stats Stats
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
func (e *PushEnforcer) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

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
	e.mu.Lock()
	e.stats.Requests++
	e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		e.countPush(false)
		return Outcome{Decision: policy.DecisionIndeterminate,
			Err: fmt.Errorf("pep %s: context done before enforcement: %v: %w", e.name, err, ErrNotPermitted)}
	}
	if cap == nil {
		e.countPush(false)
		return Outcome{Decision: policy.DecisionDeny,
			Err: fmt.Errorf("pep %s: no capability presented: %w", e.name, ErrNotPermitted)}
	}
	if err := e.validator.ValidateCapability(cap, req.ResourceID(), req.ActionID(), at); err != nil {
		e.countPush(false)
		return Outcome{Decision: policy.DecisionDeny,
			Err: fmt.Errorf("pep %s: %v: %w", e.name, err, ErrDenied)}
	}
	if cap.Subject != req.SubjectID() {
		e.countPush(false)
		return Outcome{Decision: policy.DecisionDeny,
			Err: fmt.Errorf("pep %s: capability subject %s does not match requester %s: %w",
				e.name, cap.Subject, req.SubjectID(), ErrDenied)}
	}
	e.countPush(true)
	return Outcome{Allowed: true, Decision: policy.DecisionPermit, By: cap.Issuer}
}

func (e *PushEnforcer) countPush(permitted bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if permitted {
		e.stats.Permitted++
	} else {
		e.stats.Denied++
	}
}
