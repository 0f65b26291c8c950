package analysis

import (
	"repro/internal/conflict"
	"repro/internal/policy"
)

// claim is one authorisation claim situated in the policy base: the
// conflict-analysis claim plus where it lives relative to the root.
type claim struct {
	conflict.Claim
	// Owner is the root child the claim was installed under; it equals
	// PolicyID for top-level policies and differs for rules nested in
	// policy sets.
	Owner string
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

// setConstraints are the equality constraints a policy-set target places
// on the five claim dimensions, intersected into every claim extracted
// from the set's children.
type setConstraints struct {
	subjects, roles, actions, resources, types conflict.ConstraintSet
}

func constraintsOf(t policy.Target) setConstraints {
	return setConstraints{
		subjects:  conflict.TargetConstraint(t, policy.CategorySubject, policy.AttrSubjectID),
		roles:     conflict.TargetConstraint(t, policy.CategorySubject, policy.AttrSubjectRole),
		actions:   conflict.TargetConstraint(t, policy.CategoryAction, policy.AttrActionID),
		resources: conflict.TargetConstraint(t, policy.CategoryResource, policy.AttrResourceID),
		types:     conflict.TargetConstraint(t, policy.CategoryResource, policy.AttrResourceType),
	}
}

func (sc setConstraints) narrow(c conflict.Claim) conflict.Claim {
	c.Subjects = c.Subjects.Intersect(sc.subjects)
	c.Roles = c.Roles.Intersect(sc.roles)
	c.Actions = c.Actions.Intersect(sc.actions)
	c.Resources = c.Resources.Intersect(sc.resources)
	c.ResourceTypes = c.ResourceTypes.Intersect(sc.types)
	return c
}

// normalizeClaims flattens an evaluable into situated claims. Policy-set
// targets narrow the claims of every child (a rule inside a set can only
// fire for tuples the set's target admits); unsatisfiable claims — rule
// targets disjoint from their enclosing targets — make no authorisation
// statement and are dropped. A nil evaluable or one of an unknown
// concrete type yields no claims.
func normalizeClaims(owner string, ev policy.Evaluable) []claim {
	var out []claim
	var walk func(ev policy.Evaluable, outer []setConstraints)
	walk = func(ev policy.Evaluable, outer []setConstraints) {
		switch v := ev.(type) {
		case *policy.Policy:
			for _, c := range conflict.ExtractClaims(v) {
				for _, sc := range outer {
					c = sc.narrow(c)
				}
				if c.Unsatisfiable() {
					continue
				}
				out = append(out, claim{Claim: c, Owner: owner})
			}
		case *policy.PolicySet:
			inner := append(append([]setConstraints(nil), outer...), constraintsOf(v.Target))
			for _, ch := range v.Children {
				walk(ch, inner)
			}
		}
	}
	walk(ev, nil)
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
		c.universal = c.Subjects.Wildcard() && c.Roles.Wildcard() && c.Actions.Wildcard() &&
			c.Resources.Wildcard() && c.ResourceTypes.Wildcard()
		for j := 0; j < i && !c.repeat; j++ {
			c.repeat = out[j].PolicyID == c.PolicyID && out[j].RuleID == c.RuleID
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
		if c.Resources.Wildcard() {
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
