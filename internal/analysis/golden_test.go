package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/policy"
)

// sprintfRef and sprintfKey are the formatting Ref.String and Finding.Key
// replaced, kept as the oracle: the key is the dedup identity and the sort
// tiebreak, so its bytes may not change.
func sprintfRef(r Ref) string {
	s := r.PolicyID
	if r.Owner != "" && r.Owner != r.PolicyID {
		s = r.Owner + ":" + s
	}
	if r.RuleID != "" {
		s += "/" + r.RuleID
	}
	return s
}

func sprintfKey(f Finding) string {
	return fmt.Sprintf("%s|%s|%s|%s", f.Kind, sprintfRef(f.Subject), sprintfRef(f.Other), f.Attribute)
}

// mixedBase stands at every finding kind and both severities, with nested
// (owner ≠ policy) and rule-less refs.
func mixedBase() []policy.Evaluable {
	guard := policy.Call("string-equal", policy.SubjectAttr(policy.AttrSubjectDomain), policy.LitBag(policy.String("x")))
	return []policy.Evaluable{
		pol("a-permit", policy.FirstApplicable,
			policy.Permit("open").When(policy.MatchResourceID("res-1")).Build()),
		pol("b-deny", policy.FirstApplicable,
			policy.Deny("close").When(policy.MatchResourceID("res-1")).Build()),
		pol("c-guard", policy.FirstApplicable,
			policy.Deny("guarded").When(policy.MatchResourceID("res-3")).If(guard).Build()),
		pol("fa", policy.FirstApplicable,
			policy.Permit("broad").When(policy.MatchResourceID("res-2")).Build(),
			policy.Permit("narrow").When(policy.MatchResourceID("res-2"), policy.MatchActionID("read")).Build()),
		pol("do", policy.DenyOverrides,
			policy.Permit("broad").When(policy.MatchResourceID("res-3")).Build(),
			policy.Permit("narrow").When(policy.MatchResourceID("res-3"), policy.MatchActionID("read")).Build()),
		policy.NewPolicySet("ward").Combining(policy.DenyOverrides).
			When(policy.MatchResourceID("res-4")).
			Add(policy.NewPolicy("inner").Combining(policy.DenyOverrides).
				When(policy.MatchSubject("ward-badge", policy.String("b"))).
				Rule(policy.Permit("by-department").
					When(policy.MatchSubject("department", policy.String("oncology"))).
					If(policy.Call("string-equal", policy.SubjectAttr("badge-colour"), policy.LitBag(policy.String("blue")))).
					Build()).
				Rule(policy.Deny("rest").Build()).
				Build()).
			Build(),
	}
}

// goldenMixedReport is Analyze(Config{}, mixedBase()...).Text() as the
// Sprintf-per-finding engine rendered it: order and Detail are pinned.
const goldenMixedReport = `error: conflict: actual modality conflict: a-permit/open permits and b-deny/close denies an overlapping tuple
warning: conflict: potential modality conflict: do/broad permits and c-guard/guarded denies an overlapping tuple
warning: conflict: potential modality conflict: do/narrow permits and c-guard/guarded denies an overlapping tuple
warning: conflict: potential modality conflict: ward:inner/by-department permits and ward:inner/rest denies an overlapping tuple
warning: shadow: fa/narrow is unreachable: fa/broad precedes it under first-applicable and covers every tuple it matches
warning: redundancy: do/narrow is redundant: do/broad asserts the same effect for every tuple it covers
warning: dead-attribute: ward:inner/by-department references attribute subject/badge-colour in its condition, which no registered information source or request bag can supply: the reference always resolves empty
warning: dead-attribute: ward:inner/by-department references attribute subject/department in its target, which no registered information source or request bag can supply: the reference always resolves empty
warning: dead-attribute: ward:inner references attribute subject/ward-badge in its target, which no registered information source or request bag can supply: the reference always resolves empty
warning: dead-zone: a-permit/open can never decide: b-deny/close covers it and always wins under deny-overrides
warning: dead-zone: ward:inner/by-department can never decide: ward:inner/rest covers it and always wins under deny-overrides
1 error(s), 10 warning(s): 4 conflict, 1 shadow, 1 redundancy, 3 dead-attribute, 2 dead-zone
`

func TestKeyMatchesSprintf(t *testing.T) {
	fs := []Finding{
		{Kind: KindConflict, Subject: Ref{Owner: "set", PolicyID: "inner", RuleID: "r"}, Other: Ref{Owner: "p", PolicyID: "p", RuleID: "d"}},
		{Kind: KindShadow, Subject: Ref{Owner: "", PolicyID: "p"}, Other: Ref{Owner: "o", PolicyID: "p"}},
		{Kind: KindDeadAttribute, Subject: Ref{Owner: "set", PolicyID: "set"}, Attribute: "subject/x"},
		{Kind: KindDeadAttribute, Subject: Ref{Owner: "set", PolicyID: "inner"}, Attribute: "resource/a|b"},
		{Kind: Kind(99), Subject: Ref{PolicyID: "a:b/c", RuleID: "d|e"}},
		{},
	}
	fs = append(fs, Analyze(Config{}, mixedBase()...).Findings...)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		fs = append(fs, Analyze(Config{RootCombining: policy.FirstApplicable},
			genPolicy(rng, "p0"), genPolicy(rng, "p1"), genPolicy(rng, "p2")).Findings...)
	}
	seen := make(map[Kind]bool)
	for _, f := range fs {
		seen[f.Kind] = true
		if got, want := f.Key(), sprintfKey(f); got != want {
			t.Errorf("Key() = %q, want %q", got, want)
		}
		for _, r := range []Ref{f.Subject, f.Other} {
			if got, want := r.String(), sprintfRef(r); got != want {
				t.Errorf("Ref.String() = %q, want %q", got, want)
			}
		}
	}
	for _, k := range Kinds() {
		if !seen[k] {
			t.Errorf("no %s finding exercised", k)
		}
	}
}

func TestGoldenMixedReport(t *testing.T) {
	rep := Analyze(Config{}, mixedBase()...)
	sevs := make(map[Severity]int)
	for _, f := range rep.Findings {
		sevs[f.Severity]++
	}
	if len(rep.Counts()) != len(Kinds()) || sevs[SeverityError] == 0 || sevs[SeverityWarning] == 0 {
		t.Fatalf("mixed base covers kinds %v and severities %v, want all five kinds, errors and warnings", rep.Counts(), sevs)
	}
	if got := rep.Text(); got != goldenMixedReport {
		t.Fatalf("report drifted from golden:\n%s\nwant:\n%s", got, goldenMixedReport)
	}

	// Preview renders on the way out too: previewing a standing child is
	// exactly the report's findings that involve it.
	e := NewEngine(Config{})
	e.Install(mixedBase()...)
	for _, ch := range mixedBase() {
		id := ch.EntityID()
		var want []Finding
		for _, f := range rep.Findings {
			if f.Subject.Owner == id || f.Other.Owner == id {
				want = append(want, f)
			}
		}
		if got := e.Preview(id, ch).Findings; !reflect.DeepEqual(got, want) {
			t.Errorf("Preview(%s) = %v, want %v", id, got, want)
		}
	}
}
