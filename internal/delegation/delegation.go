// Package delegation implements cross-domain administrative delegation
// (Section 3.2 of the paper, after the PRIMA system and the XACML
// administration & delegation profile): authorities delegate the right to
// issue access-control policy for a scope of resources and actions, chains
// of delegation are depth-limited and scope-narrowing, and validation
// reduces an issued policy back to a trusted root authority.
//
// Revocation follows the decentralised model the paper describes as hard
// to track: a revoked grant invalidates every chain through it, so
// cascading revocation is implicit in validation rather than eagerly
// propagated — ValidateIssuer re-derives liveness on every call.
package delegation

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/policy"
)

// Errors surfaced by the registry, matched with errors.Is.
var (
	// ErrNotAuthorized reports a delegation or issuance without a valid
	// supporting chain.
	ErrNotAuthorized = errors.New("delegation: no valid chain to a root authority")
	// ErrDepthExceeded reports a re-delegation beyond the permitted
	// depth.
	ErrDepthExceeded = errors.New("delegation: delegation depth exhausted")
	// ErrScope reports a delegation or issuance outside the delegator's
	// scope.
	ErrScope = errors.New("delegation: outside delegated scope")
	// ErrNotFound reports an unknown grant ID.
	ErrNotFound = errors.New("delegation: grant not found")
)

// Scope bounds what a delegate may issue policy about. Empty slices mean
// unrestricted.
type Scope struct {
	// Resources the delegate may govern.
	Resources []string
	// Actions the delegate may govern.
	Actions []string
}

// UnrestrictedScope covers everything.
func UnrestrictedScope() Scope { return Scope{} }

// coversValue reports whether the constraint list admits the value.
func coversValue(list []string, v string) bool {
	if len(list) == 0 {
		return true
	}
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}

// coversList reports whether outer admits every value of inner; an
// unrestricted inner is only covered by an unrestricted outer.
func coversList(outer, inner []string) bool {
	if len(outer) == 0 {
		return true
	}
	if len(inner) == 0 {
		return false
	}
	for _, v := range inner {
		if !coversValue(outer, v) {
			return false
		}
	}
	return true
}

// Covers reports whether this scope admits the whole of the other.
func (s Scope) Covers(o Scope) bool {
	return coversList(s.Resources, o.Resources) && coversList(s.Actions, o.Actions)
}

// CoversAccess reports whether the scope admits one (resource, action).
func (s Scope) CoversAccess(resource, action string) bool {
	return coversValue(s.Resources, resource) && coversValue(s.Actions, action)
}

// Grant is one delegation edge: the delegator authorises the delegate to
// issue policy (and, depth permitting, re-delegate) within a scope.
type Grant struct {
	// ID identifies the grant for revocation.
	ID string
	// Delegator and Delegate are the two authorities.
	Delegator string
	Delegate  string
	// Scope bounds the delegated authority.
	Scope Scope
	// MaxDepth is how many further re-delegations the delegate may
	// perform; 0 forbids re-delegation.
	MaxDepth int
	// Expires ends the grant's life; zero means no expiry.
	Expires time.Time
	// revoked marks explicit revocation.
	revoked bool
}

func (g *Grant) liveAt(at time.Time) bool {
	if g.revoked {
		return false
	}
	return g.Expires.IsZero() || at.Before(g.Expires)
}

// Registry tracks root authorities and delegation grants.
type Registry struct {
	mu      sync.RWMutex
	serial  int
	roots   map[string]struct{}
	grants  map[string]*Grant
	inbound map[string][]*Grant // delegate -> grants received
}

// NewRegistry builds an empty delegation registry.
func NewRegistry() *Registry {
	return &Registry{
		roots:   make(map[string]struct{}),
		grants:  make(map[string]*Grant),
		inbound: make(map[string][]*Grant),
	}
}

// AddRoot trusts an authority unconditionally (e.g. the VO authority or a
// domain's site authority).
func (r *Registry) AddRoot(authority string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.roots[authority] = struct{}{}
}

// authorityFor reports whether the authority may act within the scope at
// the given time, with at least minDepth re-delegation budget remaining,
// and returns the supporting chain (root end first, empty for roots).
func (r *Registry) authorityFor(authority string, scope Scope, minDepth int, at time.Time, visiting map[string]struct{}) ([]*Grant, error) {
	if _, ok := r.roots[authority]; ok {
		return []*Grant{}, nil
	}
	if _, busy := visiting[authority]; busy {
		return nil, fmt.Errorf("delegation: cycle through %s: %w", authority, ErrNotAuthorized)
	}
	visiting[authority] = struct{}{}
	defer delete(visiting, authority)

	var lastErr error
	for _, g := range r.inbound[authority] {
		if !g.liveAt(at) {
			continue
		}
		if g.MaxDepth < minDepth {
			lastErr = fmt.Errorf("delegation: grant %s depth %d < required %d: %w", g.ID, g.MaxDepth, minDepth, ErrDepthExceeded)
			continue
		}
		if !g.Scope.Covers(scope) {
			lastErr = fmt.Errorf("delegation: grant %s scope does not cover request: %w", g.ID, ErrScope)
			continue
		}
		// The delegator must itself be authorised for the grant's scope
		// with at least one more level of re-delegation budget than it
		// handed out.
		chain, err := r.authorityFor(g.Delegator, g.Scope, g.MaxDepth+1, at, visiting)
		if err != nil {
			lastErr = err
			continue
		}
		return append(chain, g), nil
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, fmt.Errorf("delegation: %s: %w", authority, ErrNotAuthorized)
}

// Delegate records a new grant after validating that the delegator holds
// sufficient authority: roots may delegate anything; others need a live
// chain whose scope covers the new grant and whose depth budget allows one
// more level with the requested MaxDepth.
func (r *Registry) Delegate(delegator, delegate string, scope Scope, maxDepth int, expires time.Time, at time.Time) (*Grant, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, isRoot := r.roots[delegator]; !isRoot {
		if _, err := r.authorityFor(delegator, scope, maxDepth+1, at, map[string]struct{}{}); err != nil {
			return nil, fmt.Errorf("delegation: %s delegating to %s: %w", delegator, delegate, err)
		}
	}
	r.serial++
	g := &Grant{
		ID:        "grant-" + strconv.Itoa(r.serial),
		Delegator: delegator,
		Delegate:  delegate,
		Scope:     scope,
		MaxDepth:  maxDepth,
		Expires:   expires,
	}
	r.grants[g.ID] = g
	r.inbound[delegate] = append(r.inbound[delegate], g)
	return g, nil
}

// Revoke marks a grant revoked. Chains through it become invalid on the
// next validation — the implicit cascade.
func (r *Registry) Revoke(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.grants[id]
	if !ok {
		return fmt.Errorf("delegation: %q: %w", id, ErrNotFound)
	}
	g.revoked = true
	return nil
}

// ValidateIssuer checks that the issuer may issue policy governing the
// (resource, action) pair at the given time, returning the supporting
// chain from the root (roots return an empty chain).
func (r *Registry) ValidateIssuer(issuer, resource, action string, at time.Time) ([]*Grant, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.authorityFor(issuer, Scope{Resources: []string{resource}, Actions: []string{action}}, 0, at, map[string]struct{}{})
}

// ValidatePolicy reduces an issued policy to a trusted root: every claim
// the policy makes must fall inside a scope the issuer holds. Policies
// with wildcard claims require correspondingly unrestricted grants; a
// rule whose target is disjoint from the policy's claims nothing.
func (r *Registry) ValidatePolicy(p *policy.Policy, at time.Time) error {
	if p.Issuer == "" {
		return fmt.Errorf("delegation: policy %s has no issuer: %w", p.ID, ErrNotAuthorized)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, rs := range analysis.RuleScopes(p) {
		scope := Scope{Resources: rs.Resources, Actions: rs.Actions}
		if _, err := r.authorityFor(p.Issuer, scope, 0, at, map[string]struct{}{}); err != nil {
			return fmt.Errorf("delegation: policy %s rule %s by %s: %w", p.ID, rs.RuleID, p.Issuer, err)
		}
	}
	return nil
}

// Reachable returns the authorities that currently hold any live authority
// derived (transitively) from the given grant — the set an eager cascade
// would have to visit. Used by the revocation experiment.
func (r *Registry) Reachable(grantID string, at time.Time) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	g, ok := r.grants[grantID]
	if !ok {
		return nil, fmt.Errorf("delegation: %q: %w", grantID, ErrNotFound)
	}
	seen := map[string]struct{}{}
	var out []string
	var walk func(delegate string)
	walk = func(delegate string) {
		if _, ok := seen[delegate]; ok {
			return
		}
		seen[delegate] = struct{}{}
		out = append(out, delegate)
		for _, next := range r.grants {
			if next.Delegator == delegate && next.liveAt(at) {
				walk(next.Delegate)
			}
		}
	}
	walk(g.Delegate)
	return out, nil
}
