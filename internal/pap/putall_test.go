package pap

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/policy"
)

// TestPutAllVersionsPerID: each element takes its own ID's next version,
// and the stored policies self-describe it.
func TestPutAllVersionsPerID(t *testing.T) {
	s, _ := backedStore(t)
	for i := 0; i < 2; i++ {
		if _, err := s.Put(backedPolicy("p-a")); err != nil {
			t.Fatal(err)
		}
	}
	batch := []*policy.Policy{backedPolicy("p-b"), backedPolicy("p-a"), backedPolicy("p-c")}
	if err := s.PutAll([]policy.Evaluable{batch[0], batch[1], batch[2]}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		id      string
		version int
	}{{"p-a", 3}, {"p-b", 1}, {"p-c", 1}} {
		if got := s.History(want.id); got != want.version {
			t.Errorf("History(%s) = %d, want %d", want.id, got, want.version)
		}
	}
	for i, want := range []string{"1", "3", "1"} {
		if batch[i].Version != want {
			t.Errorf("%s Version field = %q, want %q", batch[i].ID, batch[i].Version, want)
		}
	}
	if got := s.List(); !reflect.DeepEqual(got, []string{"p-a", "p-b", "p-c"}) {
		t.Fatalf("List = %v", got)
	}
}

// TestPutAllOneCommitThenWatchersInOrder: the whole write reaches the
// backend in one Commit, invisible until it returns; then every watcher
// sees each update exactly once, in slice order.
func TestPutAllOneCommitThenWatchersInOrder(t *testing.T) {
	s, b := backedStore(t)
	ids := []string{"p-z", "p-a", "p-m", "p-b"}
	var notified []Update
	s.Watch(func(u Update) {
		if b.calls != 1 {
			t.Errorf("watcher saw %s after %d commits, want after the one Commit", u.ID, b.calls)
		}
		notified = append(notified, u)
	})
	b.observed = func(u Update) {
		if len(notified) != 0 {
			t.Errorf("watcher ran before Commit returned")
		}
		for _, id := range ids {
			if s.History(id) != 0 {
				t.Errorf("%s visible while Commit runs", id)
			}
		}
	}
	es := make([]policy.Evaluable, len(ids))
	for i, id := range ids {
		es[i] = backedPolicy(id)
	}
	if err := s.PutAll(es); err != nil {
		t.Fatal(err)
	}
	if b.calls != 1 || len(b.commits) != len(ids) {
		t.Fatalf("backend saw %d Commit calls carrying %d updates, want 1 carrying %d", b.calls, len(b.commits), len(ids))
	}
	if len(notified) != len(ids) {
		t.Fatalf("watchers saw %d updates, want %d", len(notified), len(ids))
	}
	for i, id := range ids {
		c, w := b.commits[i], notified[i]
		if c.ID != id || w.ID != id || c.Version != 1 || w.Version != 1 || w.Policy != es[i] {
			t.Fatalf("update %d: backend %+v, watcher %+v, want %s at version 1", i, c, w, id)
		}
	}
	if err := s.PutAll(nil); err != nil || b.calls != 1 || len(notified) != len(ids) {
		t.Fatalf("empty PutAll = %v, then %d commits and %d notifications: want a no-op", err, b.calls, len(notified))
	}
}

// TestPutAllConcurrentCommitOrder: PutAll and Put writers racing on a
// shared ID never reach a watcher out of version order, and each PutAll's
// updates reach it back to back.
func TestPutAllConcurrentCommitOrder(t *testing.T) {
	s, _ := backedStore(t)
	last := make(map[string]int)
	var seq []string
	s.Watch(func(u Update) {
		if u.Version != last[u.ID]+1 {
			t.Errorf("%s: version %d after %d", u.ID, u.Version, last[u.ID])
		}
		last[u.ID] = u.Version
		seq = append(seq, u.ID)
	})
	const pairs, rounds = 2, 25
	var wg sync.WaitGroup
	for w := 0; w < 2*pairs; w++ {
		wg.Add(1)
		go func(batch bool) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var err error
				if batch {
					err = s.PutAll([]policy.Evaluable{backedPolicy("b-0"), backedPolicy("b-1"), backedPolicy("shared")})
				} else {
					_, err = s.Put(backedPolicy("shared"))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w%2 == 0)
	}
	wg.Wait()
	for i, id := range seq {
		if id == "b-0" && (i+2 >= len(seq) || seq[i+1] != "b-1" || seq[i+2] != "shared") {
			t.Fatalf("PutAll updates interleaved at %d: %v", i, seq[i:min(i+3, len(seq))])
		}
	}
	if last["b-0"] != pairs*rounds || last["b-1"] != pairs*rounds || last["shared"] != 2*pairs*rounds {
		t.Fatalf("final versions %v, want b-* at %d and shared at %d", last, pairs*rounds, 2*pairs*rounds)
	}
}

// TestPutAllAbortsWhole: a veto on any element, a failing backend, a
// duplicate ID, or a nil or invalid element leaves the store, the backend
// and the watchers exactly as they were.
func TestPutAllAbortsWhole(t *testing.T) {
	boom := errors.New("wal unwritable")
	veto := errors.New("lint gate says no")
	for _, tc := range []struct {
		name    string
		batch   func() []policy.Evaluable
		arm     func(*Store, *stubBackend)
		wantErr error
	}{
		{
			name: "veto-on-last",
			batch: func() []policy.Evaluable {
				return []policy.Evaluable{backedPolicy("p-a"), backedPolicy("p-b"), backedPolicy("p-c")}
			},
			arm: func(s *Store, _ *stubBackend) {
				s.PreCommit(func(u Update) error {
					if u.ID == "p-c" {
						return veto
					}
					return nil
				})
			},
			wantErr: veto,
		},
		{
			name: "backend-fails",
			batch: func() []policy.Evaluable {
				return []policy.Evaluable{backedPolicy("p-a"), backedPolicy("p-b")}
			},
			arm:     func(_ *Store, b *stubBackend) { b.err = boom },
			wantErr: boom,
		},
		{
			name: "duplicate-id",
			batch: func() []policy.Evaluable {
				return []policy.Evaluable{backedPolicy("p-a"), backedPolicy("p-b"), backedPolicy("p-a")}
			},
		},
		{
			name: "nil-element",
			batch: func() []policy.Evaluable {
				return []policy.Evaluable{backedPolicy("p-a"), nil}
			},
		},
		{
			name: "invalid-element",
			batch: func() []policy.Evaluable {
				return []policy.Evaluable{backedPolicy("p-a"), &policy.Policy{Combining: policy.DenyOverrides}}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, b := backedStore(t)
			if _, err := s.Put(backedPolicy("keep")); err != nil {
				t.Fatal(err)
			}
			var notified []Update
			s.Watch(func(u Update) { notified = append(notified, u) })
			if tc.arm != nil {
				tc.arm(s, b)
			}
			commits := len(b.commits)

			err := s.PutAll(tc.batch())
			if err == nil {
				t.Fatal("PutAll succeeded")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("PutAll = %v, want %v", err, tc.wantErr)
			}
			if got := s.List(); !reflect.DeepEqual(got, []string{"keep"}) {
				t.Fatalf("List after aborted write = %v, want [keep]", got)
			}
			for _, id := range []string{"p-a", "p-b", "p-c"} {
				if h := s.History(id); h != 0 {
					t.Fatalf("aborted write left %d versions of %s", h, id)
				}
			}
			if len(b.commits) != commits {
				t.Fatalf("backend holds %d updates after aborted write, want %d", len(b.commits), commits)
			}
			if len(notified) != 0 {
				t.Fatalf("watchers saw %d updates of an aborted write", len(notified))
			}
		})
	}
}
