package analysis

import (
	"sort"

	"repro/internal/policy"
)

// constraint is the set of values a claim admits on one dimension. A nil
// constraint admits any value (a wildcard); a non-nil empty one admits
// none — the mark of a target disjoint from an enclosing one. Narrowing
// keeps the two apart: none narrowed by anything stays none.
type constraint []string

// admits reports whether the constraint admits the value.
func (c constraint) admits(v string) bool {
	if c == nil {
		return true
	}
	for _, s := range c {
		if s == v {
			return true
		}
	}
	return false
}

// overlaps reports whether some value is admitted by both constraints.
func (c constraint) overlaps(o constraint) bool {
	switch {
	case c == nil:
		return o == nil || len(o) > 0
	case o == nil:
		return len(c) > 0
	}
	for _, v := range c {
		for _, w := range o {
			if v == w {
				return true
			}
		}
	}
	return false
}

// covers reports whether every value the other constraint admits is
// admitted by this one: the one-dimensional subsumption test behind
// shadowing, redundancy and dead zones.
func (c constraint) covers(o constraint) bool {
	if c == nil {
		return true
	}
	if o == nil {
		return false
	}
	for _, v := range o {
		if !c.admits(v) {
			return false
		}
	}
	return true
}

// intersect returns the values both constraints admit; a wildcard is the
// identity, and disjoint constraints intersect to none.
func (c constraint) intersect(o constraint) constraint {
	switch {
	case c == nil:
		return o
	case o == nil:
		return c
	}
	out := constraint{}
	for _, v := range c {
		if o.admits(v) {
			out = append(out, v)
		}
	}
	return out
}

// exact is the equality constraint a target places on one attribute: nil
// when the target admits any value of it.
func exact(t policy.Target, cat policy.Category, name string) constraint {
	vals, constrained := t.ExactMatches(cat, name)
	if !constrained {
		return nil
	}
	out := make(constraint, 0, len(vals))
	for _, v := range vals {
		out = append(out, v.String())
	}
	sort.Strings(out)
	return out
}

// claim is one authorisation claim situated in the policy base: the effect
// a rule asserts for the tuples its own and every enclosing target admit,
// and where it lives relative to the root.
type claim struct {
	// Owner is the root child the claim was installed under; it equals
	// PolicyID for top-level policies and differs for rules nested in
	// policy sets. PolicyID and RuleID locate the rule.
	Owner, PolicyID, RuleID string
	// Effect is the asserted outcome.
	Effect policy.Effect
	// Subjects, Roles, Actions, Resources and ResourceTypes are the
	// values each dimension admits, enclosing targets intersected in.
	Subjects, Roles, Actions, Resources, ResourceTypes constraint
	// Conditional marks rules with runtime conditions: their conflicts
	// are potential rather than actual.
	Conditional bool
	// Algorithm is the rule-combining algorithm of the claim's policy,
	// governing claims of one policy.
	Algorithm policy.Algorithm
	// Seq is the claim's position in the owner's depth-first flattening,
	// the document order governing order-dependent combining between
	// sibling policies of one owner.
	Seq int
	// GroupAlg is the combining algorithm governing the owner's
	// immediate children: the policy's own rule-combining algorithm for
	// a plain policy, the set's policy-combining algorithm for a set.
	// Deeper nesting is approximated by the top set's algorithm.
	GroupAlg policy.Algorithm
	// universal marks a claim that, after set-target narrowing, constrains
	// none of the five dimensions (a condition is not a constraint); see
	// the package documentation's "Incremental engine".
	universal bool
	// repeat marks a claim whose ref an earlier claim of the same owner
	// already has — a verbatim-duplicate rule, whose findings are its
	// first copy's.
	repeat bool
}

// ref locates the claim in findings.
func (c *claim) ref() Ref {
	return Ref{Owner: c.Owner, PolicyID: c.PolicyID, RuleID: c.RuleID}
}

// shape indexes the two claim properties a universal claim's findings
// against it depend on: bit 0 a permit, bit 1 a condition.
func (c *claim) shape() int {
	s := 0
	if c.Effect == policy.EffectPermit {
		s = 1
	}
	if c.Conditional {
		s |= 2
	}
	return s
}

// overlaps reports whether the two claims can apply to one access tuple.
func (c *claim) overlaps(o *claim) bool {
	return c.Resources.overlaps(o.Resources) &&
		c.Actions.overlaps(o.Actions) &&
		c.Subjects.overlaps(o.Subjects) &&
		c.Roles.overlaps(o.Roles) &&
		c.ResourceTypes.overlaps(o.ResourceTypes)
}

// covers reports whether this claim applies to every tuple the other
// applies to: five-dimensional subsumption.
func (c *claim) covers(o *claim) bool {
	return c.Resources.covers(o.Resources) &&
		c.Actions.covers(o.Actions) &&
		c.Subjects.covers(o.Subjects) &&
		c.Roles.covers(o.Roles) &&
		c.ResourceTypes.covers(o.ResourceTypes)
}

// dims lists the claim's five constraints.
func (c *claim) dims() [5]constraint {
	return [5]constraint{c.Subjects, c.Roles, c.Actions, c.Resources, c.ResourceTypes}
}

// narrow intersects the target's equality constraints into the claim.
func (c *claim) narrow(t policy.Target) {
	c.Subjects = c.Subjects.intersect(exact(t, policy.CategorySubject, policy.AttrSubjectID))
	c.Roles = c.Roles.intersect(exact(t, policy.CategorySubject, policy.AttrSubjectRole))
	c.Actions = c.Actions.intersect(exact(t, policy.CategoryAction, policy.AttrActionID))
	c.Resources = c.Resources.intersect(exact(t, policy.CategoryResource, policy.AttrResourceID))
	c.ResourceTypes = c.ResourceTypes.intersect(exact(t, policy.CategoryResource, policy.AttrResourceType))
}

// normalizeClaims flattens an evaluable into situated claims, one per rule
// in document order. Every enclosing target — each policy set's, the
// policy's, the rule's own — narrows the rule's claim (a rule inside a set
// can only fire for tuples the set's target admits); a claim some
// dimension of which admits no value makes no authorisation statement
// and is dropped. A nil evaluable or one of an unknown concrete type
// yields no claims.
func normalizeClaims(owner string, ev policy.Evaluable) []claim {
	var out []claim
	var walk func(ev policy.Evaluable, outer claim)
	walk = func(ev policy.Evaluable, outer claim) {
		switch v := ev.(type) {
		case *policy.Policy:
			outer.PolicyID, outer.Algorithm = v.ID, v.Combining
			outer.narrow(v.Target)
			for _, r := range v.Rules {
				c := outer
				c.RuleID, c.Effect, c.Conditional = r.ID, r.Effect, r.Condition != nil
				c.narrow(r.Target)
				if c.satisfiable() {
					out = append(out, c)
				}
			}
		case *policy.PolicySet:
			outer.narrow(v.Target)
			for _, ch := range v.Children {
				walk(ch, outer)
			}
		}
	}
	walk(ev, claim{Owner: owner})
	group := policy.FirstApplicable
	switch v := ev.(type) {
	case *policy.Policy:
		group = v.Combining
	case *policy.PolicySet:
		group = v.Combining
	}
	for i := range out {
		c := &out[i]
		c.Seq = i
		c.GroupAlg = group
		c.universal = true
		for _, d := range c.dims() {
			c.universal = c.universal && d == nil
		}
		for j := 0; j < i && !c.repeat; j++ {
			c.repeat = out[j].PolicyID == c.PolicyID && out[j].RuleID == c.RuleID
		}
	}
	return out
}

// satisfiable reports whether every dimension of the claim admits a value.
func (c *claim) satisfiable() bool {
	for _, d := range c.dims() {
		if d != nil && len(d) == 0 {
			return false
		}
	}
	return true
}

// RuleScope is what one rule of a policy claims, the policy's target
// merged in: the resources and actions it can apply to (nil admits any)
// and how many of the five claim dimensions — subject, role, action,
// resource, resource type — it constrains, the input of the paper's
// "more specific wins" conflict resolution.
type RuleScope struct {
	RuleID             string
	Resources, Actions []string
	Specificity        int
}

// RuleScopes lists the scopes of p's rules in document order, leaving out
// rules whose target is disjoint from the policy's: they never apply.
func RuleScopes(p *policy.Policy) []RuleScope {
	claims := normalizeClaims(p.ID, p)
	out := make([]RuleScope, len(claims))
	for i := range claims {
		c := &claims[i]
		out[i] = RuleScope{RuleID: c.RuleID, Resources: c.Resources, Actions: c.Actions}
		for _, d := range c.dims() {
			if d != nil {
				out[i].Specificity++
			}
		}
	}
	return out
}

// resourceKeys reports the exact resource identifiers the non-universal
// claims constrain and whether any of them is a resource wildcard — the
// same key space as policy.ResourceKeys, derived from the already-
// normalised claims so set-target narrowing is reflected. Universal claims
// are left out: the engine tallies them instead of pairing them.
func resourceKeys(claims []claim) (keys []string, wildcard bool) {
	seen := make(map[string]struct{})
	for _, c := range claims {
		if c.universal {
			continue
		}
		if c.Resources == nil {
			wildcard = true
			continue
		}
		for _, v := range c.Resources {
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			keys = append(keys, v)
		}
	}
	return keys, wildcard
}
