package policy

import (
	"fmt"
	"strings"
)

// Evaluable is implemented by Policy and PolicySet, the two entity types a
// policy-combining algorithm can iterate over.
type Evaluable interface {
	// Evaluate applies the entity to the context.
	Evaluate(c *Context) Result
	// TargetMatch tests only the entity's target, used by the
	// only-one-applicable combining algorithm: the interpreter's, and the
	// compiled PDP program's over its posting-list candidates.
	TargetMatch(c *Context) (MatchResult, error)
	// EntityID returns the entity's identifier.
	EntityID() string
	// Validate checks structural well-formedness.
	Validate() error
}

// Policy is a target-gated, algorithm-combined collection of rules.
type Policy struct {
	// ID uniquely names the policy within its administration point.
	ID string
	// Version distinguishes revisions of the same policy.
	Version string
	// Description documents intent.
	Description string
	// Issuer identifies the authority that created the policy; consulted
	// by the delegation validator for non-trusted issuers.
	Issuer string
	// Target gates applicability.
	Target Target
	// Combining selects the rule-combining algorithm.
	Combining Algorithm
	// Rules are the policy's children.
	Rules []*Rule
	// Obligations are added to the policy's decision.
	Obligations []Obligation
}

var _ Evaluable = (*Policy)(nil)

// EntityID implements Evaluable.
func (p *Policy) EntityID() string { return p.ID }

// TargetMatch implements Evaluable.
func (p *Policy) TargetMatch(c *Context) (MatchResult, error) { return p.Target.Evaluate(c) }

// Evaluate implements Evaluable: the target gates the rule-combining
// algorithm, and policy-level obligations matching the decision's effect are
// appended.
func (p *Policy) Evaluate(c *Context) Result {
	match, err := p.Target.Evaluate(c)
	if match == MatchIndeterminate {
		return indeterminate(p.ID, err)
	}
	if match == MatchNo {
		return notApplicable()
	}
	children := make([]combinable, len(p.Rules))
	for i, r := range p.Rules {
		children[i] = ruleChild{r: r}
	}
	res := combine(p.Combining, c, children)
	return p.decorate(c, res)
}

func (p *Policy) decorate(c *Context, res Result) Result {
	if res.Decision != DecisionPermit && res.Decision != DecisionDeny {
		return res
	}
	effect := EffectPermit
	if res.Decision == DecisionDeny {
		effect = EffectDeny
	}
	obs, err := fulfillObligations(c, p.Obligations, effect)
	if err != nil {
		return indeterminate(p.ID, err)
	}
	res.Obligations = append(res.Obligations, obs...)
	if res.By == "" {
		res.By = p.ID
	} else {
		res.By = p.ID + "/" + res.By
	}
	return res
}

// Validate implements Evaluable.
func (p *Policy) Validate() error {
	if p.ID == "" {
		return fmt.Errorf("policy: policy has empty ID")
	}
	if p.Combining < DenyOverrides || p.Combining > PermitUnlessDeny {
		return fmt.Errorf("policy %s: invalid combining algorithm %d", p.ID, int(p.Combining))
	}
	if p.Combining == OnlyOneApplicable {
		return fmt.Errorf("policy %s: only-one-applicable is a policy-combining algorithm", p.ID)
	}
	seen := make(map[string]struct{}, len(p.Rules))
	for i, r := range p.Rules {
		if r == nil {
			return fmt.Errorf("policy %s: rule %d is nil", p.ID, i)
		}
		if r.ID == "" {
			return fmt.Errorf("policy %s: rule %d has empty ID", p.ID, i)
		}
		if _, dup := seen[r.ID]; dup {
			return fmt.Errorf("policy %s: duplicate rule ID %q", p.ID, r.ID)
		}
		seen[r.ID] = struct{}{}
		if r.Effect != EffectPermit && r.Effect != EffectDeny {
			return fmt.Errorf("policy %s: rule %s has invalid effect", p.ID, r.ID)
		}
	}
	return nil
}

// String renders a compact summary.
func (p *Policy) String() string {
	ids := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		ids[i] = r.ID
	}
	return fmt.Sprintf("policy %s (%s; rules %s)", p.ID, p.Combining, strings.Join(ids, ","))
}

// PolicySet is a target-gated, algorithm-combined collection of policies and
// nested policy sets.
type PolicySet struct {
	// ID uniquely names the set.
	ID string
	// Version distinguishes revisions.
	Version string
	// Description documents intent.
	Description string
	// Issuer identifies the creating authority.
	Issuer string
	// Target gates applicability.
	Target Target
	// Combining selects the policy-combining algorithm.
	Combining Algorithm
	// Children are the contained policies and policy sets.
	Children []Evaluable
	// Obligations are added to the set's decision.
	Obligations []Obligation
}

var _ Evaluable = (*PolicySet)(nil)

// EntityID implements Evaluable.
func (s *PolicySet) EntityID() string { return s.ID }

// TargetMatch implements Evaluable.
func (s *PolicySet) TargetMatch(c *Context) (MatchResult, error) { return s.Target.Evaluate(c) }

// Evaluate implements Evaluable.
func (s *PolicySet) Evaluate(c *Context) Result {
	match, err := s.Target.Evaluate(c)
	if match == MatchIndeterminate {
		return indeterminate(s.ID, err)
	}
	if match == MatchNo {
		return notApplicable()
	}
	children := make([]combinable, len(s.Children))
	for i, e := range s.Children {
		children[i] = evaluableChild{e: e}
	}
	res := combine(s.Combining, c, children)
	return s.decorate(c, res)
}

func (s *PolicySet) decorate(c *Context, res Result) Result {
	if res.Decision != DecisionPermit && res.Decision != DecisionDeny {
		return res
	}
	effect := EffectPermit
	if res.Decision == DecisionDeny {
		effect = EffectDeny
	}
	obs, err := fulfillObligations(c, s.Obligations, effect)
	if err != nil {
		return indeterminate(s.ID, err)
	}
	res.Obligations = append(res.Obligations, obs...)
	if res.By == "" {
		res.By = s.ID
	} else {
		res.By = s.ID + "/" + res.By
	}
	return res
}

// Validate implements Evaluable.
func (s *PolicySet) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("policy: policy set has empty ID")
	}
	if s.Combining < DenyOverrides || s.Combining > PermitUnlessDeny {
		return fmt.Errorf("policy set %s: invalid combining algorithm %d", s.ID, int(s.Combining))
	}
	seen := make(map[string]struct{}, len(s.Children))
	for i, ch := range s.Children {
		if ch == nil {
			return fmt.Errorf("policy set %s: child %d is nil", s.ID, i)
		}
		id := ch.EntityID()
		if _, dup := seen[id]; dup {
			return fmt.Errorf("policy set %s: duplicate child ID %q", s.ID, id)
		}
		seen[id] = struct{}{}
		if err := ch.Validate(); err != nil {
			return fmt.Errorf("policy set %s: %w", s.ID, err)
		}
	}
	return nil
}

// String renders a compact summary.
func (s *PolicySet) String() string {
	ids := make([]string, len(s.Children))
	for i, ch := range s.Children {
		ids[i] = ch.EntityID()
	}
	return fmt.Sprintf("policyset %s (%s; children %s)", s.ID, s.Combining, strings.Join(ids, ","))
}

// Walk visits the evaluable tree depth-first, calling fn for every policy
// and policy set. Returning false stops the walk.
func Walk(root Evaluable, fn func(Evaluable) bool) {
	if root == nil || !fn(root) {
		return
	}
	if set, ok := root.(*PolicySet); ok {
		for _, ch := range set.Children {
			Walk(ch, fn)
		}
	}
}
