package analysis

import "repro/internal/policy"

// SoDRequirement is an application-specific meta-policy constraint
// (Section 3.1): no single subject population may be permitted both of two
// duties. Duties are (action, resource) pairs.
type SoDRequirement struct {
	// Name identifies the requirement.
	Name string
	// First and Second are the duties that must be separated.
	FirstAction, FirstResource   string
	SecondAction, SecondResource string
}

// SoDViolation reports two permit rules that jointly break a requirement;
// First and Second are one rule when it grants both duties by itself.
type SoDViolation struct {
	// Requirement is the broken constraint.
	Requirement SoDRequirement
	// First and Second locate the offending permits.
	First, Second Ref
}

// CheckSoD searches the root children for permit claims that grant both
// duties of a requirement to overlapping subject populations — the
// meta-policy check the paper proposes for conflicts invisible to pure
// modality analysis.
func CheckSoD(reqs []SoDRequirement, children ...policy.Evaluable) []SoDViolation {
	var permits []claim
	for _, ch := range children {
		for _, c := range normalizeClaims(ch.EntityID(), ch) {
			if c.Effect == policy.EffectPermit {
				permits = append(permits, c)
			}
		}
	}
	grants := func(c *claim, action, resource string) bool {
		return c.Actions.admits(action) && c.Resources.admits(resource)
	}
	var out []SoDViolation
	for _, req := range reqs {
		// j >= i so each unordered pair is reported once; i == j catches a
		// single blanket permit covering both duties by itself.
		for i := range permits {
			for j := i; j < len(permits); j++ {
				a, b := &permits[i], &permits[j]
				pair := grants(a, req.FirstAction, req.FirstResource) && grants(b, req.SecondAction, req.SecondResource) ||
					grants(b, req.FirstAction, req.FirstResource) && grants(a, req.SecondAction, req.SecondResource)
				if pair && a.Subjects.overlaps(b.Subjects) && a.Roles.overlaps(b.Roles) {
					out = append(out, SoDViolation{Requirement: req, First: a.ref(), Second: b.ref()})
				}
			}
		}
	}
	return out
}
