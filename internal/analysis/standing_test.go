package analysis

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// TestStandingDedupMatchesKey pins the standing set's identity to the
// bytes of Finding.Key: set a holding policy b:c and set a:b holding
// policy c both render their rule as a:b:c/open, so the veto's findings
// against the two are one finding each, exactly as Merge deduplicates the
// same emissions.
func TestStandingDedupMatchesKey(t *testing.T) {
	set := func(id, inner string) policy.Evaluable {
		return policy.NewPolicySet(id).Combining(policy.DenyOverrides).
			Add(pol(inner, policy.FirstApplicable,
				policy.Permit("open").When(policy.MatchResourceID("res-1")).Build())).
			Build()
	}
	base := []policy.Evaluable{
		set("a", "b:c"),
		set("a:b", "c"),
		pol("veto", policy.FirstApplicable, policy.Deny("close").When(policy.MatchResourceID("res-1")).Build()),
	}

	// Collect every finding Apply emits for each child, as Preview does
	// but without its per-child Merge.
	e := NewEngine(Config{})
	var emitted []Finding
	for _, ch := range base {
		id := ch.EntityID()
		st := &ownerState{claims: normalizeClaims(id, ch)}
		st.keys, st.wildcard = resourceKeys(st.claims)
		e.findingsForLocked(id, ch, st, func(f Finding) { emitted = append(emitted, f.rendered()) })
		e.Apply(id, ch)
	}
	merged := Merge(Report{Findings: emitted})
	if len(merged.Findings) == len(emitted) {
		t.Fatalf("no two emissions share a key: %v", emitted)
	}
	got := e.Report()
	if len(got.Findings) != len(merged.Findings) {
		t.Fatalf("engine stands %d findings, Merge of its emissions %d:\n%s\nwant:\n%s",
			len(got.Findings), len(merged.Findings), got.Text(), merged.Text())
	}
	for i, f := range got.Findings {
		if f.Key() != merged.Findings[i].Key() {
			t.Errorf("finding %d key = %q, want %q", i, f.Key(), merged.Findings[i].Key())
		}
	}
	if want := Analyze(Config{}, base...); !reflect.DeepEqual(got, want) {
		t.Fatalf("Report() = \n%s\nwant Analyze:\n%s", got.Text(), want.Text())
	}
}

// TestStandingSetBoundedUnderChurn keeps the standing set's memory
// following the live base: after many veto re-puts, and resource policies
// deleted and replaced under new ids so refs keep changing, the reverse
// lists hold no stale entries, the ref table no dead refs, and the live
// heap matches a fresh Install of the final base.
func TestStandingSetBoundedUnderChurn(t *testing.T) {
	const n, k = 64, 4
	base := vetoBase(n, k)
	e := NewEngine(Config{})
	e.Install(base...)
	rng := rand.New(rand.NewSource(1))
	next := n
	for round := 0; round < 1000; round++ {
		veto := base[n+round%k]
		e.Apply(veto.EntityID(), veto)
		for j := 0; j < 8; j++ {
			i := rng.Intn(n)
			e.Apply(base[i].EntityID(), nil)
			base[i] = workload.ResourcePolicy(next, 16)
			next++
			e.Apply(base[i].EntityID(), base[i])
		}
	}
	if got, want := e.Report(), Analyze(Config{}, base...); !reflect.DeepEqual(got, want) {
		t.Fatalf("churned report diverged from Analyze of the final base: %d vs %d findings", len(got.Findings), len(want.Findings))
	}

	entries := checkReverseLists(t, e)
	e.mu.Lock()
	refs := make(map[string]struct{})
	for _, st := range e.owners {
		for _, c := range st.claims {
			refs[c.ref().String()] = struct{}{}
		}
	}
	findings, owners, table := len(e.findings), len(e.owners), len(e.refs.keys)
	e.mu.Unlock()
	if entries > 2*findings+owners {
		t.Errorf("reverse lists hold %d entries for %d findings over %d owners", entries, findings, owners)
	}
	if table > 2*len(refs) {
		t.Errorf("ref table holds %d slots for %d distinct live claim refs", table, len(refs))
	}

	withChurned := liveHeap()
	runtime.KeepAlive(e)
	without := liveHeap()
	fresh := NewEngine(Config{})
	fresh.Install(base...)
	churned, installed := withChurned-without, liveHeap()-without
	runtime.KeepAlive(fresh)
	runtime.KeepAlive(base)
	if d := float64(churned) - float64(installed); math.Abs(d) > 0.1*float64(installed) {
		t.Errorf("churned engine holds %d B of live heap, a fresh Install %d B", churned, installed)
	}
}

// checkReverseLists asserts every standing finding sits at its recorded
// index in each reverse list it belongs to and the lists hold nothing
// else, and returns their total length.
func checkReverseLists(t *testing.T, e *Engine) int {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	want := 0
	for k, v := range e.findings {
		for s, owner := range e.listOwners(k) {
			if owner == "" {
				continue
			}
			want++
			if l := e.owners[owner].findings; int(v.pos[s]) >= len(l) || l[v.pos[s]] != k {
				t.Fatalf("finding %+v is not at index %d of %s's reverse list", e.materialize(k, v), v.pos[s], owner)
			}
		}
	}
	entries := 0
	for _, st := range e.owners {
		entries += len(st.findings)
	}
	if entries != want {
		t.Fatalf("reverse lists hold %d entries, standing findings %d", entries, want)
	}
	return entries
}
