package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/policy"
)

// genPolicy builds a random root child named id: usually a plain policy,
// sometimes a targeted policy set, over a small universe of resources,
// actions and roles so overlaps, coverage and conflicts all occur often.
func genPolicy(rng *rand.Rand, id string) policy.Evaluable {
	algs := []policy.Algorithm{policy.FirstApplicable, policy.DenyOverrides, policy.PermitOverrides}
	genMatches := func() []policy.Match {
		var ms []policy.Match
		if rng.Intn(4) > 0 { // wildcard resource 1 in 4
			ms = append(ms, policy.MatchResourceID(fmt.Sprintf("res-%d", rng.Intn(4))))
		}
		if rng.Intn(2) == 0 {
			ms = append(ms, policy.MatchActionID([]string{"read", "write"}[rng.Intn(2)]))
		}
		if rng.Intn(4) == 0 {
			ms = append(ms, policy.MatchRole([]string{"doctor", "nurse"}[rng.Intn(2)]))
		}
		return ms
	}
	genRules := func(prefix string) []*policy.Rule {
		n := 1 + rng.Intn(3)
		rules := make([]*policy.Rule, 0, n)
		for i := 0; i < n; i++ {
			b := policy.NewRule(fmt.Sprintf("%s-r%d", prefix, i))
			if rng.Intn(2) == 0 {
				b.Permits()
			}
			b.When(genMatches()...)
			if rng.Intn(4) == 0 {
				b.If(policy.Call("string-equal",
					policy.SubjectAttr(policy.AttrSubjectDomain),
					policy.LitBag(policy.String("hospital"))))
			}
			rules = append(rules, b.Build())
			if rng.Intn(8) == 0 { // a verbatim duplicate: same-key findings
				rules = append(rules, rules[len(rules)-1])
			}
		}
		return rules
	}
	genPlain := func(pid string) *policy.Policy {
		b := policy.NewPolicy(pid).Combining(algs[rng.Intn(len(algs))]).When(genMatches()...)
		for _, r := range genRules(pid) {
			b.Rule(r)
		}
		return b.Build()
	}
	if rng.Intn(4) == 0 {
		sb := policy.NewPolicySet(id).Combining(algs[rng.Intn(len(algs))]).When(genMatches()...)
		for i := 0; i < 1+rng.Intn(2); i++ {
			sb.Add(genPlain(fmt.Sprintf("%s-child%d", id, i)))
		}
		return sb.Build()
	}
	return genPlain(id)
}

// TestIncrementalEquivalence is the analyser's central property: after any
// sequence of puts, replacements and deletes, the engine's standing report
// equals a from-scratch analysis of the surviving base — for every root
// combining algorithm, since cross-owner findings depend on it.
func TestIncrementalEquivalence(t *testing.T) {
	owners := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	for _, root := range []policy.Algorithm{policy.DenyOverrides, policy.PermitOverrides, policy.FirstApplicable} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", root, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cfg := Config{RootCombining: root}
				eng := NewEngine(cfg)
				base := make(map[string]policy.Evaluable)
				for step := 0; step < 50; step++ {
					id := owners[rng.Intn(len(owners))]
					if rng.Intn(5) == 0 {
						eng.Apply(id, nil)
						delete(base, id)
					} else {
						ev := genPolicy(rng, id)
						eng.Apply(id, ev)
						base[id] = ev
					}
					children := make([]policy.Evaluable, 0, len(base))
					for _, ev := range base {
						children = append(children, ev)
					}
					want := Analyze(cfg, children...)
					got := eng.Report()
					if !reflect.DeepEqual(got.Findings, want.Findings) {
						t.Fatalf("step %d (%d owners): incremental report diverged\nincremental (%d):\n%sfull (%d):\n%s",
							step, len(base), len(got.Findings), got.Text(), len(want.Findings), want.Text())
					}
					checkStanding(t, fmt.Sprintf("step %d", step), eng, want)
				}
				if st := eng.Stats(); st.IncrementalRuns != 50 {
					t.Fatalf("incremental runs = %d, want 50", st.IncrementalRuns)
				}
			})
		}
	}
}

// TestInstallMatchesDeltaReplay pins the other framing of the property:
// Install of a final base equals replaying its members as deltas in any
// order.
func TestInstallMatchesDeltaReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	children := make([]policy.Evaluable, 0, 8)
	for i := 0; i < 8; i++ {
		children = append(children, genPolicy(rng, fmt.Sprintf("p%d", i)))
	}
	full := NewEngine(Config{})
	full.Install(children...)

	replay := NewEngine(Config{})
	for _, i := range rng.Perm(len(children)) {
		replay.Apply(children[i].EntityID(), children[i])
	}
	if !reflect.DeepEqual(full.Report().Findings, replay.Report().Findings) {
		t.Fatalf("delta replay diverged from install:\nfull:\n%sreplay:\n%s",
			full.Report().Text(), replay.Report().Text())
	}
	want := Analyze(Config{}, children...)
	checkStanding(t, "install", full, want)
	checkStanding(t, "replay", replay, want)
}

// checkStanding asserts the engine's running counters — Stats by kind and
// severity, and Summary — agree with a from-scratch report of its base.
func checkStanding(t *testing.T, at string, eng *Engine, want Report) {
	t.Helper()
	bySev := make(map[Severity]int)
	for _, f := range want.Findings {
		bySev[f.Severity]++
	}
	st := eng.Stats()
	if !reflect.DeepEqual(st.Findings, want.Counts()) || !reflect.DeepEqual(st.Severities, bySev) {
		t.Fatalf("%s: Stats counts %v / %v, want %v / %v", at, st.Findings, st.Severities, want.Counts(), bySev)
	}
	if got := eng.Summary(); got != want.Summary() {
		t.Fatalf("%s: Summary() = %q, want %q", at, got, want.Summary())
	}
}
