package store

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/pap"
	"repro/internal/pdp"
	"repro/internal/policy"
)

// randomOps drives a deterministic pseudo-random mix of Puts and Deletes
// over a small ID space through a backed pap.Store, returning the root
// fingerprint after every acknowledged write: fingerprints[i] is the
// policy-base state once exactly i writes were acknowledged.
func randomOps(t *testing.T, s *pap.Store, rng *rand.Rand, n, ids int) []string {
	t.Helper()
	fingerprints := []string{rootFingerprint(t, s)}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("p-%d", rng.Intn(ids))
		if rng.Intn(4) == 0 {
			if err := s.Delete(id); err != nil {
				// Deleting an absent policy is a client error, not a
				// write: retry as a put so every iteration commits.
				if _, perr := s.Put(testPolicy(id, "res-"+id, fmt.Sprintf("op%d", i))); perr != nil {
					t.Fatalf("op %d: %v", i, perr)
				}
			}
		} else {
			if _, err := s.Put(testPolicy(id, "res-"+id, fmt.Sprintf("op%d", i))); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		fingerprints = append(fingerprints, rootFingerprint(t, s))
	}
	return fingerprints
}

// rootFingerprint reduces the store's full policy base to comparable
// bytes: the canonical JSON of the assembled root.
func rootFingerprint(t *testing.T, s *pap.Store) string {
	t.Helper()
	root, err := s.BuildRoot("root", policy.DenyOverrides)
	if err != nil {
		t.Fatalf("BuildRoot: %v", err)
	}
	return policyJSON(t, root)
}

// recoverFingerprint recovers a data directory from scratch, bootstraps a
// fresh store and engine through the delta pipeline, and returns the
// fingerprint plus how many WAL records were replayed and a decision
// probe over the resource space.
func recoverFingerprint(t *testing.T, dir string, ids int) (string, int, []policy.Decision) {
	t.Helper()
	l, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	defer l.Close()
	s := pap.NewStore("recovered")
	engine := pdp.New("recovered")
	if err := l.Bootstrap(s, engine, "root", policy.DenyOverrides); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	st := l.Stats()
	return rootFingerprint(t, s), st.RecoveredSnapshot + st.RecoveredTail, probe(engine, ids)
}

func probe(engine *pdp.Engine, ids int) []policy.Decision {
	out := make([]policy.Decision, 0, ids*2)
	for i := 0; i < ids; i++ {
		res := fmt.Sprintf("res-p-%d", i)
		out = append(out,
			policy.Decide(context.Background(), engine, policy.NewAccessRequest("u", res, "read"), time.Time{}).Decision,
			policy.Decide(context.Background(), engine, policy.NewAccessRequest("u", res, "write"), time.Time{}).Decision)
	}
	return out
}

// TestCrashAtAnyByteOffset is the acceptance property: for a sequence of
// acknowledged writes, truncating the WAL at *every* byte offset (a crash
// can stop the disk anywhere) and recovering must yield the exact policy
// base — and therefore byte-identical decisions — of some acknowledged
// prefix of the sequence. Never a torn half-write, never a lost
// acknowledged record beyond the torn tail, and monotone: more surviving
// bytes never recover fewer writes. The sequence ends in one multi-record
// write (PutAll), whose records a cut may keep only as an in-order prefix.
func TestCrashAtAnyByteOffset(t *testing.T) {
	const ops, ids = 10, 4
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: -1})
	s := pap.NewStore("live")
	if err := l.Bootstrap(s, nil, "root", policy.DenyOverrides); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	fingerprints := randomOps(t, s, rng, ops, ids)
	if err := s.PutAll(batchPolicies(ids)); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Batches != ops+1 || st.Appends != ops+ids {
		t.Fatalf("WAL stats = %+v, want %d batches carrying %d records", st, ops+1, ops+ids)
	}

	// Decision probes for every prefix, from independently rebuilt
	// engines: recovery must land exactly on one of these.
	prefixStores := prefixStoresFor(t, ops, ids)
	for _, ps := range prefixStores[len(fingerprints):] {
		fingerprints = append(fingerprints, rootFingerprint(t, ps))
	}
	if fingerprints[len(fingerprints)-1] != rootFingerprint(t, s) {
		t.Fatal("live store after the batch differs from the rebuilt final prefix")
	}
	writes := len(fingerprints) - 1
	prefixProbes := make([][]policy.Decision, len(fingerprints))
	for i, ps := range prefixStores {
		engine := pdp.New(fmt.Sprintf("prefix-%d", i))
		root, err := ps.BuildRoot("root", policy.DenyOverrides)
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.SetRoot(root); err != nil {
			t.Fatal(err)
		}
		prefixProbes[i] = probe(engine, ids)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}

	lastRecovered := -1
	for cut := 0; cut <= len(wal); cut++ {
		crashDir := filepath.Join(t.TempDir(), "crash")
		if err := os.MkdirAll(crashDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, segName(1)), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, n, decisions := recoverFingerprint(t, crashDir, ids)
		if n >= len(fingerprints) {
			t.Fatalf("cut %d: recovered %d records from %d writes", cut, n, writes)
		}
		if got != fingerprints[n] {
			t.Fatalf("cut %d: recovered state does not match acknowledged prefix %d", cut, n)
		}
		for j, d := range decisions {
			if d != prefixProbes[n][j] {
				t.Fatalf("cut %d: decision %d = %v, want %v (prefix %d)", cut, j, d, prefixProbes[n][j], n)
			}
		}
		if n < lastRecovered {
			t.Fatalf("cut %d: recovery went backwards (%d after %d)", cut, n, lastRecovered)
		}
		lastRecovered = n
	}
	if lastRecovered != writes {
		t.Fatalf("full WAL recovered %d of %d writes", lastRecovered, writes)
	}
}

// batchPolicies is the multi-record write closing the crash sequence: a
// fresh revision of every ID, in descending ID order so an in-order
// prefix differs from every other subset.
func batchPolicies(ids int) []policy.Evaluable {
	out := make([]policy.Evaluable, 0, ids)
	for i := ids - 1; i >= 0; i-- {
		id := fmt.Sprintf("p-%d", i)
		out = append(out, testPolicy(id, "res-"+id, "batch"))
	}
	return out
}

// prefixStoresFor rebuilds, from scratch and without any persistence, the
// store state after every prefix of the same pseudo-random op sequence
// (same seed, same retry rule as randomOps) followed by batchPolicies,
// one record at a time.
func prefixStoresFor(t *testing.T, ops, ids int) []*pap.Store {
	t.Helper()
	stores := make([]*pap.Store, 0, ops+1)
	rng := rand.New(rand.NewSource(42))
	s := pap.NewStore("prefix")
	snap := func() *pap.Store {
		c := pap.NewStore("prefix-copy")
		for _, id := range s.List() {
			e, err := s.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Hydrate(id, s.History(id), false, e); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	stores = append(stores, snap())
	for i := 0; i < ops; i++ {
		id := fmt.Sprintf("p-%d", rng.Intn(ids))
		if rng.Intn(4) == 0 {
			if err := s.Delete(id); err != nil {
				if _, perr := s.Put(testPolicy(id, "res-"+id, fmt.Sprintf("op%d", i))); perr != nil {
					t.Fatal(perr)
				}
			}
		} else {
			if _, err := s.Put(testPolicy(id, "res-"+id, fmt.Sprintf("op%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		stores = append(stores, snap())
	}
	for _, e := range batchPolicies(ids) {
		if _, err := s.Put(e); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, snap())
	}
	return stores
}

// TestCrashCopyDuringSnapshotChurn models kill -9 at arbitrary commit
// boundaries of a snapshotting log: after every acknowledged write the
// whole data directory is copied (files fsynced by the durability
// contract), recovered, and compared against the live store's state at
// that moment — across snapshot/compact cycles and a delete-heavy mix.
func TestCrashCopyDuringSnapshotChurn(t *testing.T) {
	const ops, ids = 40, 6
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: 5})
	s := pap.NewStore("live")
	if err := l.Bootstrap(s, nil, "root", policy.DenyOverrides); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < ops; i++ {
		id := fmt.Sprintf("p-%d", rng.Intn(ids))
		if rng.Intn(3) == 0 {
			if err := s.Delete(id); err != nil {
				if _, perr := s.Put(testPolicy(id, "res-"+id, fmt.Sprintf("op%d", i))); perr != nil {
					t.Fatal(perr)
				}
			}
		} else if _, err := s.Put(testPolicy(id, "res-"+id, fmt.Sprintf("op%d", i))); err != nil {
			t.Fatal(err)
		}
		want := rootFingerprint(t, s)

		crashDir := filepath.Join(t.TempDir(), "crash")
		copyDir(t, dir, crashDir)
		r, err := Open(crashDir, Options{SnapshotEvery: 5})
		if err != nil {
			t.Fatalf("op %d: recover: %v", i, err)
		}
		rs := pap.NewStore("recovered")
		engine := pdp.New("recovered")
		if err := r.Bootstrap(rs, engine, "root", policy.DenyOverrides); err != nil {
			t.Fatalf("op %d: bootstrap: %v", i, err)
		}
		if got := rootFingerprint(t, rs); got != want {
			t.Fatalf("op %d: recovered policy base diverged from acknowledged state", i)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("op %d: close: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
