package federation

import (
	"context"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/store"
)

func persistPolicy(id, resource string) *policy.Policy {
	return policy.NewPolicy(id).
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID(resource)).
		Rule(policy.Permit("allow").When(policy.MatchActionID("read")).Build()).
		Rule(policy.Deny("default").Build()).
		Build()
}

// TestDomainHydratePAP: a restarted domain hydrated from a durable log
// serves exactly the decisions it acknowledged before the crash — the
// delete included — and keeps persisting new administration.
func TestDomainHydratePAP(t *testing.T) {
	dir := t.TempDir()
	lg, err := store.Open(dir, store.Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	first, err := NewDomain("hospital-a", newDetRand(1), epoch, later)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.HydratePAP(lg); err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct{ id, res string }{
		{"p-records", "records"}, {"p-labs", "labs"}, {"p-wards", "wards"},
		{"p-archive", "archive"}, {"p-billing", "billing"},
	} {
		if _, err := first.PAP.Put(persistPolicy(p.id, p.res)); err != nil {
			t.Fatal(err)
		}
	}
	if err := first.PAP.Delete("p-billing"); err != nil {
		t.Fatal(err)
	}
	read := func(d *Domain, res string) policy.Decision {
		return policy.Decide(context.Background(), d.PDP, policy.NewAccessRequest("alice", res, "read"), time.Time{}).Decision
	}
	if got := read(first, "records"); got != policy.DecisionPermit {
		t.Fatalf("records pre-crash = %v", got)
	}
	// kill -9: no graceful close, no final compaction.
	if err := lg.Crash(); err != nil {
		t.Fatal(err)
	}

	rlg, err := store.Open(dir, store.Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rlg.Close()
	if rlg.Stats().RecoveredSnapshot == 0 || rlg.Stats().RecoveredTail == 0 {
		t.Fatalf("want snapshot and tail both exercised: %+v", rlg.Stats())
	}
	second, err := NewDomain("hospital-a", newDetRand(2), epoch, later)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.HydratePAP(rlg); err != nil {
		t.Fatal(err)
	}
	for res, want := range map[string]policy.Decision{
		"records": policy.DecisionPermit,
		"labs":    policy.DecisionPermit,
		"billing": policy.DecisionNotApplicable, // deleted pre-crash: must not resurrect
	} {
		if got := read(second, res); got != want {
			t.Fatalf("%s after recovery = %v, want %v", res, got, want)
		}
	}
	// The domain's normal watcher pipeline keeps working, now durably:
	// the first post-recovery write reaches the PDP as one delta.
	if _, err := second.PAP.Put(persistPolicy("p-icu", "icu")); err != nil {
		t.Fatal(err)
	}
	if got := read(second, "icu"); got != policy.DecisionPermit {
		t.Fatalf("post-recovery put = %v", got)
	}
	if st := second.PDP.Stats(); st.Updates != 1 {
		t.Fatalf("engine Updates = %d, want 1: the post-recovery write takes the delta path (%+v)", st.Updates, st)
	}
	if rlg.Stats().LastSeq != 7 {
		t.Fatalf("LastSeq = %d, want 7 (6 pre-crash + 1 post-recovery)", rlg.Stats().LastSeq)
	}
}
