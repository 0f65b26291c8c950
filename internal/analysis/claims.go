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
}

// ref locates the claim in findings.
func (c *claim) ref() Ref {
	return Ref{Owner: c.Owner, PolicyID: c.PolicyID, RuleID: c.RuleID}
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
		out[i].Seq = i
		out[i].GroupAlg = group
	}
	return out
}

// resourceKeys reports the exact resource identifiers the claims
// constrain and whether any claim is a resource wildcard — the same key
// space as policy.ResourceKeys, derived from the already-normalised
// claims so set-target narrowing is reflected.
func resourceKeys(claims []claim) (keys []string, wildcard bool) {
	seen := make(map[string]struct{})
	for _, c := range claims {
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
