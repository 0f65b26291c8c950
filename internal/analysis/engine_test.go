package analysis

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/pip"
	"repro/internal/policy"
)

// permitRead / denyAll build the small vocabulary of claims the tests mix.
func permitRead(res string) *policy.Rule {
	return policy.Permit("permit-read").When(policy.MatchResourceID(res), policy.MatchActionID("read")).Build()
}

func denyAll(res string) *policy.Rule {
	return policy.Deny("deny-all").When(policy.MatchResourceID(res)).Build()
}

func pol(id string, alg policy.Algorithm, rules ...*policy.Rule) *policy.Policy {
	b := policy.NewPolicy(id).Combining(alg)
	for _, r := range rules {
		b.Rule(r)
	}
	return b.Build()
}

func kinds(fs []Finding) map[Kind]int {
	out := make(map[Kind]int)
	for _, f := range fs {
		out[f.Kind]++
	}
	return out
}

func mustFind(t *testing.T, rep Report, kind Kind) Finding {
	t.Helper()
	for _, f := range rep.Findings {
		if f.Kind == kind {
			return f
		}
	}
	t.Fatalf("no %s finding in %v", kind, rep.Findings)
	return Finding{}
}

func TestConflictSeverity(t *testing.T) {
	permit := pol("a-permit", policy.FirstApplicable,
		policy.Permit("open").When(policy.MatchResourceID("res-1")).Build())
	deny := pol("b-deny", policy.FirstApplicable,
		policy.Deny("close").When(policy.MatchResourceID("res-1")).Build())

	// reader constrains all three dimensions; the rows below vary one.
	reader := policy.Permit("open").When(policy.MatchResourceID("res-1"), policy.MatchActionID("read"), policy.MatchRole("doctor"))

	t.Run("cross-owner-actual-is-error", func(t *testing.T) {
		for _, tc := range []struct {
			name         string
			permit, deny *policy.Policy
		}{
			{"same-target", permit, deny},
			// A blanket deny (a universal claim) clashes with any permit.
			{"blanket-deny", permit, pol("b-deny", policy.FirstApplicable, policy.Deny("close").Build())},
			{"role-action-resource", pol("a-permit", policy.FirstApplicable, reader.Build()),
				pol("b-deny", policy.FirstApplicable,
					policy.Deny("close").When(policy.MatchResourceID("res-1"), policy.MatchActionID("read"), policy.MatchRole("doctor")).Build())},
		} {
			t.Run(tc.name, func(t *testing.T) {
				rep := Analyze(Config{}, tc.permit, tc.deny)
				f := mustFind(t, rep, KindConflict)
				if !f.Actual || f.Severity != SeverityError {
					t.Fatalf("cross actual conflict = %+v, want actual error", f)
				}
				if f.Subject.PolicyID != "a-permit" || f.Other.PolicyID != "b-deny" {
					t.Fatalf("conflict sides = %s vs %s, want permit side as subject", f.Subject, f.Other)
				}
				if len(rep.Blocking()) == 0 {
					t.Fatal("actual cross-owner conflict must block strict writes")
				}
			})
		}
	})

	t.Run("conditional-is-potential-warning", func(t *testing.T) {
		guard := policy.Call("string-equal", policy.SubjectAttr(policy.AttrSubjectDomain), policy.LitBag(policy.String("x")))
		for _, tc := range []struct {
			name            string
			permit, guarded *policy.Policy
		}{
			{"resource-target", permit, pol("b-deny", policy.FirstApplicable,
				policy.Deny("close").When(policy.MatchResourceID("res-1")).If(guard).Build())},
			{"action-target", pol("a-permit", policy.FirstApplicable, policy.Permit("open").When(policy.MatchActionID("read")).Build()),
				pol("b-deny", policy.FirstApplicable, policy.Deny("close").When(policy.MatchActionID("read")).If(guard).Build())},
		} {
			t.Run(tc.name, func(t *testing.T) {
				f := mustFind(t, Analyze(Config{}, tc.permit, tc.guarded), KindConflict)
				if f.Actual || f.Severity != SeverityWarning {
					t.Fatalf("conditional conflict = %+v, want potential warning", f)
				}
			})
		}
	})

	t.Run("intra-policy-is-warning", func(t *testing.T) {
		both := pol("p", policy.DenyOverrides,
			policy.Permit("open").When(policy.MatchResourceID("res-1")).Build(),
			policy.Deny("close").When(policy.MatchResourceID("res-1")).Build())
		f := mustFind(t, Analyze(Config{}, both), KindConflict)
		if !f.Actual || f.Severity != SeverityWarning {
			t.Fatalf("intra conflict = %+v, want actual warning", f)
		}
	})

	// A permit and a deny differing in one dimension never meet.
	for _, tc := range []struct {
		name          string
		permit, other *policy.Rule
	}{
		{"disjoint-resources-are-clean", permit.Rules[0],
			policy.Deny("close").When(policy.MatchResourceID("res-2")).Build()},
		{"disjoint-resources-same-subject-are-clean", reader.Build(),
			policy.Deny("close").When(policy.MatchResourceID("res-2"), policy.MatchActionID("read"), policy.MatchRole("doctor")).Build()},
		{"disjoint-actions-are-clean", reader.Build(),
			policy.Deny("close").When(policy.MatchResourceID("res-1"), policy.MatchActionID("write"), policy.MatchRole("doctor")).Build()},
		{"disjoint-roles-are-clean", reader.Build(),
			policy.Deny("close").When(policy.MatchResourceID("res-1"), policy.MatchActionID("read"), policy.MatchRole("nurse")).Build()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := Analyze(Config{}, pol("a-permit", policy.FirstApplicable, tc.permit), pol("b-deny", policy.FirstApplicable, tc.other))
			if !rep.Clean() {
				t.Fatalf("disjoint claims produced findings: %v", rep.Findings)
			}
		})
	}
}

func TestShadowFindings(t *testing.T) {
	t.Run("intra-first-applicable", func(t *testing.T) {
		p := pol("p", policy.FirstApplicable,
			policy.Permit("broad").When(policy.MatchResourceID("res-1")).Build(),
			policy.Permit("narrow").When(policy.MatchResourceID("res-1"), policy.MatchActionID("read")).Build())
		f := mustFind(t, Analyze(Config{}, p), KindShadow)
		if f.Subject.RuleID != "narrow" || f.Other.RuleID != "broad" {
			t.Fatalf("shadow = %s by %s, want narrow by broad", f.Subject, f.Other)
		}
		if f.Severity != SeverityWarning {
			t.Fatalf("intra shadow severity = %s, want warning", f.Severity)
		}
	})

	t.Run("cross-owner-under-first-applicable-root", func(t *testing.T) {
		first := pol("a-pol", policy.FirstApplicable,
			policy.Permit("broad").When(policy.MatchResourceID("res-1")).Build())
		second := pol("b-pol", policy.FirstApplicable,
			policy.Permit("narrow").When(policy.MatchResourceID("res-1"), policy.MatchActionID("read")).Build())
		rep := Analyze(Config{RootCombining: policy.FirstApplicable}, first, second)
		f := mustFind(t, rep, KindShadow)
		if f.Severity != SeverityError {
			t.Fatalf("cross shadow severity = %s, want error", f.Severity)
		}
		if f.Subject.Owner != "b-pol" {
			t.Fatalf("shadowed owner = %s, want b-pol (lexicographically later)", f.Subject.Owner)
		}
	})

	t.Run("conditional-coverer-does-not-shadow", func(t *testing.T) {
		p := pol("p", policy.FirstApplicable,
			policy.Permit("broad").When(policy.MatchResourceID("res-1")).
				If(policy.Call("string-equal", policy.SubjectAttr(policy.AttrSubjectDomain), policy.LitBag(policy.String("x")))).
				Build(),
			policy.Permit("narrow").When(policy.MatchResourceID("res-1"), policy.MatchActionID("read")).Build())
		if got := kinds(Analyze(Config{}, p).Findings)[KindShadow]; got != 0 {
			t.Fatalf("conditional coverer produced %d shadow findings, want 0", got)
		}
	})
}

func TestDeadZoneFindings(t *testing.T) {
	p := pol("p", policy.DenyOverrides,
		denyAll("res-1"),
		permitRead("res-1"))
	f := mustFind(t, Analyze(Config{}, p), KindDeadZone)
	if f.Subject.RuleID != "permit-read" || f.Other.RuleID != "deny-all" {
		t.Fatalf("dead zone = %s under %s, want permit-read under deny-all", f.Subject, f.Other)
	}
	if !strings.Contains(f.Detail, "deny-overrides") {
		t.Fatalf("detail %q does not name the algorithm", f.Detail)
	}

	// Under permit-overrides the same pair flips: the permit can still
	// decide, the deny cannot — but only a covering winner is dead, and
	// permit-read does not cover deny-all.
	po := pol("p", policy.PermitOverrides, denyAll("res-1"), permitRead("res-1"))
	if got := kinds(Analyze(Config{}, po).Findings)[KindDeadZone]; got != 0 {
		t.Fatalf("permit-overrides non-covering pair produced %d dead zones, want 0", got)
	}
}

func TestRedundancyFindings(t *testing.T) {
	p := pol("p", policy.DenyOverrides,
		policy.Permit("broad").When(policy.MatchResourceID("res-1")).Build(),
		policy.Permit("narrow").When(policy.MatchResourceID("res-1"), policy.MatchActionID("read")).Build())
	rep := Analyze(Config{}, p)
	f := mustFind(t, rep, KindRedundancy)
	if f.Subject.RuleID != "narrow" || f.Other.RuleID != "broad" {
		t.Fatalf("redundancy = %s vs %s, want narrow redundant to broad", f.Subject, f.Other)
	}
	if got := kinds(rep.Findings)[KindConflict]; got != 0 {
		t.Fatalf("same-effect overlap produced %d conflicts, want 0", got)
	}

	// Under first-applicable the covered rule is reported shadowed, not
	// redundant — one finding per defect.
	fa := pol("p", policy.FirstApplicable,
		policy.Permit("broad").When(policy.MatchResourceID("res-1")).Build(),
		policy.Permit("narrow").When(policy.MatchResourceID("res-1"), policy.MatchActionID("read")).Build())
	got := kinds(Analyze(Config{}, fa).Findings)
	if got[KindRedundancy] != 0 || got[KindShadow] != 1 {
		t.Fatalf("first-applicable coverage = %v, want 1 shadow and no redundancy", got)
	}

	t.Run("same-effect-across-owners-is-no-conflict", func(t *testing.T) {
		permitRead := func(id string) *policy.Policy {
			return pol(id, policy.FirstApplicable,
				policy.Permit("open").When(policy.MatchResourceID("res-1"), policy.MatchActionID("read"), policy.MatchRole("doctor")).Build())
		}
		if got := kinds(Analyze(Config{}, permitRead("a"), permitRead("b")).Findings)[KindConflict]; got != 0 {
			t.Fatalf("two permits on one target produced %d conflicts, want 0", got)
		}
	})
}

func TestDeadAttributeFindings(t *testing.T) {
	dept := pol("p", policy.DenyOverrides,
		policy.Permit("by-department").
			When(policy.MatchResourceID("res-1"), policy.MatchSubject("department", policy.String("oncology"))).
			Build())

	t.Run("unknown-attribute-reported", func(t *testing.T) {
		f := mustFind(t, Analyze(Config{}, dept), KindDeadAttribute)
		if f.Attribute != "subject/department" {
			t.Fatalf("attribute = %q, want subject/department", f.Attribute)
		}
		if f.Severity != SeverityWarning {
			t.Fatalf("severity = %s, want warning", f.Severity)
		}
	})

	t.Run("condition-designators-walked", func(t *testing.T) {
		cond := pol("p", policy.DenyOverrides,
			policy.Permit("guarded").When(policy.MatchResourceID("res-1")).
				If(policy.Call("string-equal", policy.SubjectAttr("badge-colour"), policy.LitBag(policy.String("blue")))).
				Build())
		f := mustFind(t, Analyze(Config{}, cond), KindDeadAttribute)
		if f.Attribute != "subject/badge-colour" {
			t.Fatalf("attribute = %q, want subject/badge-colour", f.Attribute)
		}
	})

	t.Run("pip-declared-attribute-is-live", func(t *testing.T) {
		st := pip.NewStaticStore("hr")
		st.Set(policy.CategorySubject, "department", policy.String("oncology"))
		vocab := BaseVocabulary()
		vocab.AddSource(st)
		if rep := Analyze(Config{Vocabulary: vocab}, dept); !rep.Clean() {
			t.Fatalf("PIP-supplied attribute still reported: %v", rep.Findings)
		}
	})

	t.Run("open-vocabulary-disables-analysis", func(t *testing.T) {
		vocab := BaseVocabulary()
		vocab.MarkOpen()
		if rep := Analyze(Config{Vocabulary: vocab}, dept); !rep.Clean() {
			t.Fatalf("open vocabulary still reported: %v", rep.Findings)
		}
	})
}

func TestPolicySetNarrowing(t *testing.T) {
	// The set admits only res-1; its child policy has no resource target,
	// so its claims narrow to res-1 and cannot clash with res-2 policies.
	set := policy.NewPolicySet("ward").Combining(policy.DenyOverrides).
		When(policy.MatchResourceID("res-1")).
		Add(pol("inner", policy.FirstApplicable, policy.Permit("open").Build())).
		Build()
	other := pol("z-deny", policy.FirstApplicable,
		policy.Deny("close").When(policy.MatchResourceID("res-2")).Build())
	if rep := Analyze(Config{}, set, other); !rep.Clean() {
		t.Fatalf("set-narrowed claims clashed with a disjoint policy: %v", rep.Findings)
	}
	clashing := pol("z-deny", policy.FirstApplicable,
		policy.Deny("close").When(policy.MatchResourceID("res-1")).Build())
	f := mustFind(t, Analyze(Config{}, set, clashing), KindConflict)
	if f.Subject.Owner != "ward" || f.Subject.PolicyID != "inner" {
		t.Fatalf("nested claim ref = %+v, want owner ward, policy inner", f.Subject)
	}
}

// TestUniversalClaims pins which claims the engine tallies rather than
// pairs: those constraining none of the five dimensions after set-target
// narrowing. A condition is not a constraint; a set or policy target is.
func TestUniversalClaims(t *testing.T) {
	guard := policy.Call("string-equal", policy.SubjectAttr(policy.AttrSubjectDomain), policy.LitBag(policy.String("x")))
	wide := pol("wide", policy.DenyOverrides,
		policy.Deny("all").Build(),
		policy.Permit("guarded").If(guard).Build(),
		policy.Permit("reads").When(policy.MatchActionID("read")).Build())
	ward := policy.NewPolicySet("ward").Combining(policy.DenyOverrides).
		When(policy.MatchResourceID("res-1")).
		Add(pol("inner", policy.DenyOverrides, policy.Deny("all").Build())).
		Build()
	db := policy.NewPolicy("db").Combining(policy.FirstApplicable).
		When(policy.MatchResourceID("db")).
		Rule(policy.Permit("reads").When(policy.MatchActionID("read")).Build()).
		Rule(policy.Deny("guarded").If(guard).Build()).
		Build()
	for _, tc := range []struct {
		ev   policy.Evaluable
		want []bool
	}{{wide, []bool{true, true, false}}, {ward, []bool{false}}, {db, []bool{false, false}}} {
		claims := normalizeClaims(tc.ev.EntityID(), tc.ev)
		if len(claims) != len(tc.want) {
			t.Fatalf("%s: %d claims, want %d", tc.ev.EntityID(), len(claims), len(tc.want))
		}
		for i, c := range claims {
			if c.universal != tc.want[i] {
				t.Errorf("%s: universal = %v, want %v", c.ref(), c.universal, tc.want[i])
			}
		}
	}
}

func TestPreviewExcludesOwnRevision(t *testing.T) {
	e := NewEngine(Config{})
	e.Install(
		pol("p1", policy.FirstApplicable, denyAll("res-1")),
		pol("p2", policy.FirstApplicable, permitRead("res-2")))

	// Replacing p1 with its own negation is not a conflict — the old
	// revision disappears with the write.
	flip := pol("p1", policy.FirstApplicable,
		policy.Permit("open").When(policy.MatchResourceID("res-1")).Build())
	if rep := e.Preview("p1", flip); !rep.Clean() {
		t.Fatalf("preview clashed with the revision it replaces: %v", rep.Findings)
	}

	// But a different owner clashing with p1 is caught, without mutating
	// the engine.
	rogue := pol("p3", policy.FirstApplicable,
		policy.Permit("open").When(policy.MatchResourceID("res-1")).Build())
	f := mustFind(t, e.Preview("p3", rogue), KindConflict)
	if !f.Actual {
		t.Fatalf("preview conflict = %+v, want actual", f)
	}
	if got := len(e.Report().Findings); got != 0 {
		t.Fatalf("preview mutated the engine: %d findings standing", got)
	}
	if rep := e.Preview("p1", nil); !rep.Clean() {
		t.Fatalf("delete preview not clean: %v", rep.Findings)
	}
}

func TestGateModes(t *testing.T) {
	base := pol("base", policy.FirstApplicable, denyAll("res-1"))
	rogue := pol("rogue", policy.FirstApplicable,
		policy.Permit("open").When(policy.MatchResourceID("res-1")).Build())

	newEngine := func() *Engine {
		e := NewEngine(Config{})
		e.Install(base)
		return e
	}

	t.Run("strict-rejects-blocking", func(t *testing.T) {
		g := NewGate(newEngine(), ModeStrict)
		rep, err := g.Check("rogue", rogue)
		if !errors.Is(err, ErrRejected) {
			t.Fatalf("strict check err = %v, want ErrRejected", err)
		}
		if len(rep.Blocking()) == 0 {
			t.Fatal("rejection carries no blocking findings")
		}
		if st := g.Stats(); st.Checks != 1 || st.Rejections != 1 {
			t.Fatalf("stats = %+v, want 1 check, 1 rejection", st)
		}
	})

	t.Run("warn-reports-without-rejecting", func(t *testing.T) {
		g := NewGate(newEngine(), ModeWarn)
		rep, err := g.Check("rogue", rogue)
		if err != nil {
			t.Fatalf("warn check err = %v", err)
		}
		mustFind(t, rep, KindConflict)
	})

	t.Run("off-and-nil-admit-everything", func(t *testing.T) {
		for _, g := range []*Gate{nil, NewGate(newEngine(), ModeOff)} {
			rep, err := g.Check("rogue", rogue)
			if err != nil || !rep.Clean() {
				t.Fatalf("gate %v: rep=%v err=%v, want clean admit", g.Mode(), rep.Findings, err)
			}
		}
	})
}

func TestStatsAndMergeDedup(t *testing.T) {
	e := NewEngine(Config{})
	e.Install(pol("a", policy.FirstApplicable, permitRead("res-1")))
	e.Apply("b", pol("b", policy.FirstApplicable, denyAll("res-1")))
	st := e.Stats()
	if st.FullRuns != 1 || st.IncrementalRuns != 1 {
		t.Fatalf("runs = %d full, %d incremental, want 1 and 1", st.FullRuns, st.IncrementalRuns)
	}
	if st.Policies != 2 || st.Claims != 2 {
		t.Fatalf("base = %d policies, %d claims, want 2 and 2", st.Policies, st.Claims)
	}
	rep := e.Report()
	if merged := Merge(rep, rep); len(merged.Findings) != len(rep.Findings) {
		t.Fatalf("merge of identical reports grew: %d -> %d", len(rep.Findings), len(merged.Findings))
	}
}
