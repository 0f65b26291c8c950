package store

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ha"
	"repro/internal/pap"
	"repro/internal/pdp"
	"repro/internal/policy"
)

// TestBootstrapClusterHydratesShards pins the replication-bootstrap use:
// a freshly built sharded cluster router following a store rebuilt from
// snapshot + WAL tail serves the same decisions as the pre-crash single
// store, and the first post-recovery write reaches it through
// cluster.Router.ApplyUpdate (the delta path).
func TestBootstrapClusterHydratesShards(t *testing.T) {
	const ids = 8
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: 6})
	live := pap.NewStore("live")
	if err := l.Bootstrap(live); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ids; i++ {
		id := fmt.Sprintf("p-%d", i)
		if _, err := live.Put(testPolicy(id, "res-"+id, "v1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Delete("p-3"); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Put(testPolicy("p-1", "res-p-1", "v2")); err != nil {
		t.Fatal(err)
	}
	want := rootFingerprint(t, live)
	// Crash-copy rather than Close: a graceful close would fold the tail
	// into a final snapshot, and this test wants both in play.
	crashDir := filepath.Join(t.TempDir(), "crash")
	copyDir(t, dir, crashDir)
	defer l.Close()

	r := mustOpen(t, crashDir, Options{SnapshotEvery: 6})
	defer r.Close()
	if len(r.RecoveredSnapshot()) == 0 || len(r.RecoveredTail()) == 0 {
		t.Fatalf("want both snapshot (%d) and tail (%d) in play",
			len(r.RecoveredSnapshot()), len(r.RecoveredTail()))
	}
	router, err := cluster.New("recovered", cluster.Config{Shards: 4, Replicas: 2, Strategy: ha.Failover})
	if err != nil {
		t.Fatal(err)
	}
	s := pap.NewStore("recovered")
	recoverInto(t, r, s, router)
	if got := rootFingerprint(t, s); got != want {
		t.Fatal("recovered store diverged from pre-crash store")
	}
	// The cluster decides like a single engine given a fresh BuildRoot,
	// right after recovery and again after one post-recovery write.
	sameAsSingle := func(when string) {
		t.Helper()
		single := pdp.New("reference")
		root, err := s.BuildRoot(pap.Root{ID: "root", Combining: policy.DenyOverrides})
		if err != nil {
			t.Fatal(err)
		}
		if err := single.SetRoot(root); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ids; i++ {
			for _, action := range []string{"read", "write"} {
				req := policy.NewAccessRequest("u", fmt.Sprintf("res-p-%d", i), action)
				got := policy.Decide(context.Background(), router, req, time.Time{})
				ref := policy.Decide(context.Background(), single, policy.NewAccessRequest("u", fmt.Sprintf("res-p-%d", i), action), time.Time{})
				if got.Decision != ref.Decision {
					t.Fatalf("%s: res-p-%d %s: cluster = %v, single = %v", when, i, action, got.Decision, ref.Decision)
				}
			}
		}
	}
	sameAsSingle("after recovery")
	if _, err := s.Put(testPolicy("p-3", "res-p-3", "v3")); err != nil {
		t.Fatal(err)
	}
	sameAsSingle("after a post-recovery write")
	if st := router.Stats(); st.Updates != 1 {
		t.Fatalf("router Updates = %d, want 1: the post-recovery write takes the delta path (stats %+v)", st.Updates, st)
	}
}

// TestBootstrapRefusesDirtyStore: hydrating over existing entries would
// silently merge two worlds.
func TestBootstrapRefusesDirtyStore(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: 2})
	s := pap.NewStore("a")
	if err := l.Bootstrap(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Put(testPolicy(fmt.Sprintf("p-%d", i), "res", "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	dirty := pap.NewStore("dirty")
	if _, err := dirty.Put(testPolicy("p-0", "res", "other")); err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(dirty); err == nil {
		t.Fatal("Bootstrap over a dirty store succeeded")
	}
}

// TestMemoryBackendContract exercises the test double itself: commit
// order matches acknowledgement order and injected failures abort writes.
func TestMemoryBackendContract(t *testing.T) {
	m := NewMemory()
	s := pap.NewStore("mem")
	s.SetBackend(m)
	if _, err := s.Put(testPolicy("p-a", "res", "v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("p-a"); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	m.FailWith(boom)
	if _, err := s.Put(testPolicy("p-b", "res", "v1")); !errors.Is(err, boom) {
		t.Fatalf("Put with failing backend = %v, want %v", err, boom)
	}
	if _, err := s.Get("p-b"); !errors.Is(err, pap.ErrNotFound) {
		t.Fatal("aborted write became visible")
	}
	m.FailWith(nil)
	ups := m.Updates()
	if len(ups) != 2 || ups[0].ID != "p-a" || ups[0].Version != 1 || !ups[1].Deleted {
		t.Fatalf("recorded updates = %+v", ups)
	}
}
