package pap

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/policy"
)

// stubBackend records commits and can fail on demand; the full-featured
// double lives in internal/store (Memory), which this internal test
// cannot import without a cycle.
type stubBackend struct {
	commits []Update
	// calls counts successful Commit calls (one per write).
	calls int
	// observed is called inside Commit so tests can examine store state
	// at commit time, before the write becomes visible.
	observed func(Update)
	err      error
}

func (b *stubBackend) Commit(us ...Update) error {
	if b.err != nil {
		return b.err
	}
	for _, u := range us {
		if b.observed != nil {
			b.observed(u)
		}
		b.commits = append(b.commits, u)
	}
	b.calls++
	return nil
}

func backedStore(t *testing.T) (*Store, *stubBackend) {
	t.Helper()
	s := NewStore("backed")
	b := &stubBackend{}
	s.SetBackend(b)
	return s, b
}

func backedPolicy(id string) *policy.Policy {
	return policy.NewPolicy(id).
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID("res-" + id)).
		Rule(policy.Permit("allow").Build()).
		Build()
}

// TestBackendDurabilityBeforeVisibility pins the ordering contract: at
// the moment Commit runs, the write is not yet readable; once Put
// returns, it is.
func TestBackendDurabilityBeforeVisibility(t *testing.T) {
	s, b := backedStore(t)
	b.observed = func(u Update) {
		if _, err := s.Get(u.ID); !errors.Is(err, ErrNotFound) {
			t.Errorf("write %s visible before Commit returned", u.ID)
		}
	}
	if _, err := s.Put(backedPolicy("p-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("p-a"); err != nil {
		t.Fatalf("write invisible after ack: %v", err)
	}
	if len(b.commits) != 1 || b.commits[0].Version != 1 || b.commits[0].Policy == nil {
		t.Fatalf("commits = %+v", b.commits)
	}
}

// TestBackendFailureAbortsWrite: a failed commit must leave no trace — no
// state change, no watcher notification, and version numbering continues
// as if the write never happened.
func TestBackendFailureAbortsWrite(t *testing.T) {
	s, b := backedStore(t)
	if _, err := s.Put(backedPolicy("p-a")); err != nil {
		t.Fatal(err)
	}
	var notified []Update
	s.Watch(func(u Update) { notified = append(notified, u) })

	boom := errors.New("wal unwritable")
	b.err = boom
	if _, err := s.Put(backedPolicy("p-a")); !errors.Is(err, boom) {
		t.Fatalf("Put = %v, want %v", err, boom)
	}
	if err := s.Delete("p-a"); !errors.Is(err, boom) {
		t.Fatalf("Delete = %v, want %v", err, boom)
	}
	if len(notified) != 0 {
		t.Fatalf("watchers saw %d aborted writes", len(notified))
	}
	if s.History("p-a") != 1 {
		t.Fatalf("History = %d after aborted writes, want 1", s.History("p-a"))
	}
	if _, err := s.Get("p-a"); err != nil {
		t.Fatalf("prior version lost: %v", err)
	}

	b.err = nil
	v, err := s.Put(backedPolicy("p-a"))
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("version after healed backend = %d, want 2 (aborted write must not burn a number)", v)
	}
	if len(b.commits) != 2 || b.commits[1].Version != 2 {
		t.Fatalf("commits = %+v", b.commits)
	}
}

// TestBackendCommitOrderMatchesWatchers: the backend and the watchers see
// one identical, serialised update sequence.
func TestBackendCommitOrderMatchesWatchers(t *testing.T) {
	s, b := backedStore(t)
	var notified []Update
	s.Watch(func(u Update) { notified = append(notified, u) })
	for i := 0; i < 5; i++ {
		if _, err := s.Put(backedPolicy(fmt.Sprintf("p-%d", i%2))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("p-0"); err != nil {
		t.Fatal(err)
	}
	if len(b.commits) != len(notified) {
		t.Fatalf("backend saw %d updates, watchers %d", len(b.commits), len(notified))
	}
	for i := range notified {
		c, w := b.commits[i], notified[i]
		if c.ID != w.ID || c.Version != w.Version || c.Deleted != w.Deleted {
			t.Fatalf("update %d: backend %+v, watcher %+v", i, c, w)
		}
	}
}

func TestHydrateAndReplay(t *testing.T) {
	s := NewStore("recovered")
	if err := s.Hydrate("p-a", 3, false, backedPolicy("p-a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Hydrate("p-gone", 2, true, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Hydrate("p-a", 1, false, backedPolicy("p-a")); err == nil {
		t.Fatal("double hydrate accepted")
	}
	if s.History("p-a") != 3 {
		t.Fatalf("History = %d, want 3", s.History("p-a"))
	}
	if _, err := s.GetVersion("p-a", 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("compacted version readable: %v", err)
	}
	if _, err := s.GetVersion("p-a", 3); err != nil {
		t.Fatalf("latest version unreadable: %v", err)
	}
	if got := s.List(); len(got) != 1 || got[0] != "p-a" {
		t.Fatalf("List = %v", got)
	}

	// Replay continues exactly where the snapshot left off.
	if err := s.Replay(Update{ID: "p-a", Version: 4, Policy: backedPolicy("p-a")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Replay(Update{ID: "p-a", Version: 4, Policy: backedPolicy("p-a")}); err == nil {
		t.Fatal("out-of-order replay accepted")
	}
	if err := s.Replay(Update{ID: "p-gone", Version: 3, Policy: backedPolicy("p-gone")}); err != nil {
		t.Fatalf("resurrecting a deleted policy via replay: %v", err)
	}
	if err := s.Replay(Update{ID: "p-a", Deleted: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Replay(Update{ID: "p-a", Deleted: true}); err == nil {
		t.Fatal("replaying delete of a dead policy accepted")
	}
	if got := s.List(); len(got) != 1 || got[0] != "p-gone" {
		t.Fatalf("List = %v", got)
	}
	// Post-recovery writes continue the version numbering.
	v, err := s.Put(backedPolicy("p-a"))
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Fatalf("version after recovery = %d, want 5", v)
	}
}
