package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/policy"
)

func TestConstraintOps(t *testing.T) {
	var anyValue constraint // nil: a wildcard
	none := constraint{}    // non-nil and empty: no value
	ab, bc, cd, b := constraint{"a", "b"}, constraint{"b", "c"}, constraint{"c", "d"}, constraint{"b"}
	for _, tc := range []struct {
		name     string
		x, y     constraint
		overlaps bool
		covers   bool // x covers y
		meet     constraint
	}{
		{"any-any", anyValue, anyValue, true, true, nil},
		{"any-set", anyValue, ab, true, true, ab},
		{"set-any", ab, anyValue, true, false, ab},
		{"shared-value", ab, bc, true, false, b},
		{"subset", ab, b, true, true, b},
		{"disjoint", ab, cd, false, false, none},
		{"none-any", none, anyValue, false, false, none},
		{"any-none", anyValue, none, false, true, none},
		{"none-set", none, ab, false, false, none},
		{"set-none", ab, none, false, true, none},
		{"none-none", none, none, false, true, none},
	} {
		if got := tc.x.overlaps(tc.y); got != tc.overlaps {
			t.Errorf("%s: overlaps = %v, want %v", tc.name, got, tc.overlaps)
		}
		if got := tc.y.overlaps(tc.x); got != tc.overlaps {
			t.Errorf("%s: reversed overlaps = %v, want %v", tc.name, got, tc.overlaps)
		}
		if got := tc.x.covers(tc.y); got != tc.covers {
			t.Errorf("%s: covers = %v, want %v", tc.name, got, tc.covers)
		}
		// reflect.DeepEqual tells nil (any value) from empty (none).
		if got := tc.x.intersect(tc.y); !reflect.DeepEqual(got, tc.meet) {
			t.Errorf("%s: intersect = %#v, want %#v", tc.name, got, tc.meet)
		}
	}
	// None stays none under further narrowing: an enclosing target cannot
	// bring back a dimension an inner disjoint target emptied.
	if got := ab.intersect(cd).intersect(cd); !reflect.DeepEqual(got, none) {
		t.Errorf("narrowing none = %#v, want none", got)
	}
}

// TestUnsatisfiableClaimsDropped pins that a rule whose target is disjoint
// from an enclosing one claims nothing, at any depth, so it can neither
// conflict with nor dead-zone a live rule, and the strict gate admits the
// live rule — as the evaluator, which never fires the dead rule, agrees.
func TestUnsatisfiableClaimsDropped(t *testing.T) {
	permit := pol("permit", policy.FirstApplicable,
		policy.Permit("ok").When(policy.MatchResourceID("c"), policy.MatchActionID("read")).Build())
	for _, tc := range []struct {
		name string
		dead policy.Evaluable
	}{
		{"rule-disjoint-from-policy", policy.NewPolicy("imp").Combining(policy.FirstApplicable).
			When(policy.MatchResourceID("db1")).
			Rule(policy.Deny("never").When(policy.MatchResourceID("db2")).Build()).
			Build()},
		// The set's target (c) must not refill the resource dimension the
		// policy (a) and its rule (b) leave empty.
		{"set-over-disjoint-policy-and-rule", policy.NewPolicySet("set").Combining(policy.DenyOverrides).
			When(policy.MatchResourceID("c")).
			Add(policy.NewPolicy("inner").Combining(policy.DenyOverrides).
				When(policy.MatchResourceID("a")).
				Rule(policy.Deny("dead").When(policy.MatchResourceID("b"), policy.MatchActionID("read")).Build()).
				Build()).
			Build()},
	} {
		if claims := normalizeClaims(tc.dead.EntityID(), tc.dead); len(claims) != 0 {
			t.Errorf("%s: extracted %d claims from a rule that never applies: %+v", tc.name, len(claims), claims)
		}
		if rep := Analyze(Config{}, tc.dead, permit); !rep.Clean() {
			t.Errorf("%s: findings against a dead rule:\n%s", tc.name, rep.Text())
		}
		e := NewEngine(Config{})
		e.Install(tc.dead)
		if rep, err := NewGate(e, ModeStrict).Check("permit", permit); err != nil {
			t.Errorf("%s: strict gate rejected the live permit: %v\n%s", tc.name, err, rep.Text())
		}
		root := policy.NewPolicySet("root").Combining(policy.DenyOverrides).Add(tc.dead, permit).Build()
		req := policy.NewRequest().
			Add(policy.CategoryResource, policy.AttrResourceID, policy.String("c")).
			Add(policy.CategoryAction, policy.AttrActionID, policy.String("read"))
		if got := root.Evaluate(policy.NewContext(req)).Decision; got != policy.DecisionPermit {
			t.Errorf("%s: root decides %s for (c, read), want Permit", tc.name, got)
		}
	}
}

// claimDims are the five claim dimensions as request attributes, in the
// order of claim.dims.
var claimDims = [5]struct {
	cat  policy.Category
	name string
}{
	{policy.CategorySubject, policy.AttrSubjectID},
	{policy.CategorySubject, policy.AttrSubjectRole},
	{policy.CategoryAction, policy.AttrActionID},
	{policy.CategoryResource, policy.AttrResourceID},
	{policy.CategoryResource, policy.AttrResourceType},
}

// TestClaimExtractionMatchesTargets checks normalizeClaims against the
// policy package's own target matching on random nestings of sets,
// policies and rules whose targets hold at most one equality disjunction
// per dimension over a three-value universe, the resource dimension
// constrained most often so nested targets are often disjoint on it. Over
// every single-valued request of the universe, a rule's claim must be kept
// iff some request matches the rule and every enclosing target, and each
// kept dimension must admit exactly the values of the matching requests.
func TestClaimExtractionMatchesTargets(t *testing.T) {
	values := []string{"v0", "v1", "v2"}
	var requests [][5]int // every assignment of a universe value to each dimension
	for i := 0; i < 243; i++ {
		var r [5]int
		for d, n := 0, i; d < 5; d, n = d+1, n/3 {
			r[d] = n % 3
		}
		requests = append(requests, r)
	}
	contexts := make([]*policy.Context, len(requests))
	for i, r := range requests {
		req := policy.NewRequest()
		for d, v := range r {
			req.Add(claimDims[d].cat, claimDims[d].name, policy.String(values[v]))
		}
		contexts[i] = policy.NewContext(req)
	}

	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		genTarget := func() policy.Target {
			var t policy.Target
			for d := range claimDims {
				p := 4 // one in four, the resource dimension one in two
				if d == 3 {
					p = 2
				}
				if rng.Intn(p) != 0 {
					continue
				}
				var group policy.AnyOf
				for i, v := range values {
					if rng.Intn(2) == 0 || (i == len(values)-1 && len(group) == 0) {
						group = append(group, policy.AllOf{policy.MatchAttr(claimDims[d].cat, claimDims[d].name, policy.String(v))})
					}
				}
				t = append(t, group)
			}
			return t
		}
		// want lists each rule's expected claim in document order: the
		// requests matching it and every enclosing target.
		type want struct {
			rule    string
			matches []int
		}
		var wants []want
		n := 0
		var gen func(depth int, outer []policy.Target) policy.Evaluable
		gen = func(depth int, outer []policy.Target) policy.Evaluable {
			n++
			id := fmt.Sprintf("e%d", n)
			target := genTarget()
			inner := append(append([]policy.Target(nil), outer...), target)
			if depth < 2 && rng.Intn(3) == 0 {
				set := &policy.PolicySet{ID: id, Target: target, Combining: policy.DenyOverrides}
				for i := 0; i < 1+rng.Intn(2); i++ {
					set.Children = append(set.Children, gen(depth+1, inner))
				}
				return set
			}
			p := &policy.Policy{ID: id, Target: target, Combining: policy.FirstApplicable}
			for i := 0; i < 1+rng.Intn(3); i++ {
				r := &policy.Rule{ID: fmt.Sprintf("%s-r%d", id, i), Effect: policy.EffectDeny, Target: genTarget()}
				p.Rules = append(p.Rules, r)
				w := want{rule: r.ID}
				for j, ctx := range contexts {
					ok := true
					for _, tg := range append(inner, r.Target) {
						if m, err := tg.Evaluate(ctx); err != nil || m != policy.MatchYes {
							ok = false
							break
						}
					}
					if ok {
						w.matches = append(w.matches, j)
					}
				}
				if len(w.matches) > 0 {
					wants = append(wants, w)
				}
			}
			return p
		}
		ev := gen(0, nil)
		claims := normalizeClaims(ev.EntityID(), ev)
		if len(claims) != len(wants) {
			t.Fatalf("seed %d: %d claims, want %d (one per rule some request can reach)", seed, len(claims), len(wants))
		}
		for i, w := range wants {
			c := &claims[i]
			if c.RuleID != w.rule {
				t.Fatalf("seed %d: claim %d is rule %s, want %s", seed, i, c.RuleID, w.rule)
			}
			for d, got := range c.dims() {
				admitted := make(map[string]bool)
				for _, j := range w.matches {
					admitted[values[requests[j][d]]] = true
				}
				for _, v := range values {
					if got.admits(v) != admitted[v] {
						t.Fatalf("seed %d: rule %s dimension %s admits %v, want values %v",
							seed, w.rule, claimDims[d].name, got, admitted)
					}
				}
			}
		}
	}
}
