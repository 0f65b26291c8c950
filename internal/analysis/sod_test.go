package analysis

import (
	"testing"

	"repro/internal/policy"
)

func TestCheckSoD(t *testing.T) {
	permit := func(id, role, action, resource string) policy.Evaluable {
		var ms []policy.Match
		if role != "" {
			ms = append(ms, policy.MatchRole(role), policy.MatchActionID(action), policy.MatchResourceID(resource))
		}
		return pol(id, policy.FirstApplicable, policy.Permit(id+"-allow").When(ms...).Build())
	}
	reqs := []SoDRequirement{{
		Name:           "payment-sod",
		FirstAction:    "raise",
		FirstResource:  "payment",
		SecondAction:   "approve",
		SecondResource: "payment",
	}}
	for _, tc := range []struct {
		name     string
		base     []policy.Evaluable
		violates bool
	}{
		{"one-role-holds-both-duties", []policy.Evaluable{
			permit("raise", "clerk", "raise", "payment"),
			permit("approve", "clerk", "approve", "payment"),
			permit("other", "auditor", "read", "ledger"),
		}, true},
		{"separated-roles", []policy.Evaluable{
			permit("raise", "clerk", "raise", "payment"),
			permit("approve", "supervisor", "approve", "payment"),
		}, false},
		// One wildcard permit covers both duties by itself.
		{"blanket-permit", []policy.Evaluable{permit("super", "", "", "")}, true},
	} {
		if got := CheckSoD(reqs, tc.base...); (len(got) > 0) != tc.violates {
			t.Errorf("%s: violations %+v, want violation %v", tc.name, got, tc.violates)
		}
	}
}
