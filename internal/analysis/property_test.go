package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/policy"
)

// genPolicy builds a random root child named id: usually a plain policy,
// a quarter of the time an organisation-wide one with universal claims,
// sometimes a policy set — targeted around target-less rules, or around
// plain policies — over a small universe of resources, actions and roles
// so overlaps, coverage and conflicts all occur often.
func genPolicy(rng *rand.Rand, id string) policy.Evaluable {
	algs := []policy.Algorithm{policy.FirstApplicable, policy.DenyOverrides, policy.PermitOverrides}
	guard := func() policy.Expression {
		return policy.Call("string-equal",
			policy.SubjectAttr(policy.AttrSubjectDomain),
			policy.LitBag(policy.String("hospital")))
	}
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
				b.If(guard())
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
	// genWide builds a target-less policy of one or two target-less rules
	// of either effect, conditional or not (sometimes duplicated), and half
	// the time the targeted rules of a plain policy too, so its owner mixes
	// universal and non-universal claims.
	genWide := func(pid string) *policy.Policy {
		var rules []*policy.Rule
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			b := policy.NewRule(fmt.Sprintf("%s-u%d", pid, i))
			if rng.Intn(2) == 0 {
				b.Permits()
			}
			if rng.Intn(2) == 0 {
				b.If(guard())
			}
			rules = append(rules, b.Build())
			if rng.Intn(4) == 0 {
				rules = append(rules, rules[len(rules)-1])
			}
		}
		if rng.Intn(2) == 0 {
			rules = append(rules, genRules(pid)...)
			rng.Shuffle(len(rules), func(i, j int) { rules[i], rules[j] = rules[j], rules[i] })
		}
		b := policy.NewPolicy(pid).Combining(algs[rng.Intn(len(algs))])
		for _, r := range rules {
			b.Rule(r)
		}
		return b.Build()
	}
	switch rng.Intn(8) {
	case 0, 1:
		return genWide(id)
	case 2: // set-target narrowing: none of these claims is universal
		return policy.NewPolicySet(id).Combining(algs[rng.Intn(len(algs))]).
			When(policy.MatchResourceID(fmt.Sprintf("res-%d", rng.Intn(4)))).
			Add(genWide(id + "-child0")).
			Build()
	case 3:
		sb := policy.NewPolicySet(id).Combining(algs[rng.Intn(len(algs))]).When(genMatches()...)
		for i := 0; i < 1+rng.Intn(2); i++ {
			sb.Add(genPlain(fmt.Sprintf("%s-child%d", id, i)))
		}
		return sb.Build()
	}
	return genPlain(id)
}

// referenceReport is the oracle the engine is checked against: every
// claim pair of the base through pairFindings — no index, no tallies —
// plus each child's dead attributes, deduplicated by Key under the
// engine's tie rule (the first emission stands, and any other emission of
// the key must be the same finding; see fkey), then sorted.
func referenceReport(t *testing.T, cfg Config, children ...policy.Evaluable) Report {
	t.Helper()
	cfg = cfg.normalized()
	fs := []Finding{}
	seen := make(map[string]int)
	add := func(f Finding) {
		f = f.rendered()
		key := f.Key()
		if i, dup := seen[key]; dup {
			if fs[i] != f && f.Kind != KindDeadAttribute {
				t.Fatalf("reference: two emissions of %s differ:\n%+v\n%+v", key, fs[i], f)
			}
			return
		}
		seen[key] = len(fs)
		fs = append(fs, f)
	}
	var claims []claim
	for _, ch := range children {
		deadAttributes(ch.EntityID(), ch, cfg.Vocabulary, add)
		claims = append(claims, normalizeClaims(ch.EntityID(), ch)...)
	}
	for i := range claims {
		for j := i + 1; j < len(claims); j++ {
			pairFindings(&claims[i], &claims[j], cfg.RootCombining, add)
		}
	}
	keys := make([]string, len(fs))
	for i := range fs {
		keys[i] = fs[i].Key()
	}
	sortFindings(fs, keys)
	return Report{Findings: fs}
}

// universalMix reports which pairings of universal (u) and non-universal
// (n) claims a base holds: u×u and u×n across owners, and an owner
// holding both kinds.
func universalMix(base map[string]policy.Evaluable) (uu, un, mixed bool) {
	var us, ns []string
	for id, ev := range base {
		hasU, hasN := false, false
		for _, c := range normalizeClaims(id, ev) {
			hasU, hasN = hasU || c.universal, hasN || !c.universal
		}
		if hasU {
			us = append(us, id)
		}
		if hasN {
			ns = append(ns, id)
		}
		mixed = mixed || hasU && hasN
	}
	un = len(us) > 0 && len(ns) > 0 && !(len(us) == 1 && len(ns) == 1 && us[0] == ns[0])
	return len(us) > 1, un, mixed
}

// TestIncrementalEquivalence is the analyser's central property: after any
// sequence of puts, replacements and deletes, the engine's standing report
// and counters equal the quadratic reference over the surviving base — for
// every root combining algorithm, since cross-owner findings depend on it.
// Every seed must reach the tallies: universal claims against universal and
// non-universal claims of other owners, and owners holding both kinds.
func TestIncrementalEquivalence(t *testing.T) {
	owners := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	for _, root := range []policy.Algorithm{policy.DenyOverrides, policy.PermitOverrides, policy.FirstApplicable} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", root, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cfg := Config{RootCombining: root}
				eng := NewEngine(cfg)
				base := make(map[string]policy.Evaluable)
				var sawUU, sawUN, sawMixed bool
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
					want := referenceReport(t, cfg, children...)
					got := eng.Report()
					if !reflect.DeepEqual(got.Findings, want.Findings) {
						t.Fatalf("step %d (%d owners): incremental report diverged\nincremental (%d):\n%sreference (%d):\n%s",
							step, len(base), len(got.Findings), got.Text(), len(want.Findings), want.Text())
					}
					checkStanding(t, fmt.Sprintf("step %d", step), eng, want)
					uu, un, mixed := universalMix(base)
					sawUU, sawUN, sawMixed = sawUU || uu, sawUN || un, sawMixed || mixed
				}
				if st := eng.Stats(); st.IncrementalRuns != 50 {
					t.Fatalf("incremental runs = %d, want 50", st.IncrementalRuns)
				}
				if !sawUU || !sawUN || !sawMixed {
					t.Fatalf("seed reached universal×universal %v, universal×non-universal %v, mixed owner %v; want all",
						sawUU, sawUN, sawMixed)
				}
			})
		}
	}
}

// TestInstallMatchesDeltaReplay pins the other framing of the property:
// Install of a final base equals replaying its members as deltas in any
// order, and both equal the reference.
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
	want := referenceReport(t, Config{}, children...)
	for _, c := range []struct {
		at  string
		eng *Engine
	}{{"install", full}, {"replay", replay}} {
		if got := c.eng.Report(); !reflect.DeepEqual(got.Findings, want.Findings) {
			t.Fatalf("%s diverged from the reference:\n%sreference:\n%s", c.at, got.Text(), want.Text())
		}
		checkStanding(t, c.at, c.eng, want)
	}
}

// checkStanding asserts the engine's running counters — Stats by kind and
// severity, and Summary — agree with the reference report of its base.
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
