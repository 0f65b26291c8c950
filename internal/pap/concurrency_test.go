package pap

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/policy"
)

// TestConcurrentPutDeleteBuildRoot hammers the store with concurrent
// writers, deleters and root builders. Before BuildRoot snapshotted the
// live set under one lock, a Delete racing the List→Get window made root
// assembly fail with ErrNotFound; any such error now fails the test (run
// with -race).
func TestConcurrentPutDeleteBuildRoot(t *testing.T) {
	s := NewStore("pap")
	// Seed a stable population so BuildRoot always has work to do.
	for i := 0; i < 20; i++ {
		if _, err := s.Put(permitPolicy(fmt.Sprintf("stable-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	const (
		writers = 4
		rounds  = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers*rounds*2)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("churn-%d-%02d", w, i%5)
				if _, err := s.Put(permitPolicy(id)); err != nil {
					errs <- err
					return
				}
				if err := s.Delete(id); err != nil && !errors.Is(err, ErrNotFound) {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writers*rounds; i++ {
			root, err := s.BuildRoot(Root{ID: "root", Combining: policy.DenyOverrides})
			if err != nil {
				errs <- fmt.Errorf("BuildRoot during churn: %w", err)
				return
			}
			if len(root.Children) < 20 {
				errs <- fmt.Errorf("BuildRoot dropped stable policies: %d children", len(root.Children))
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWatcherCommitOrder verifies the refresh-race fix: watchers observe
// updates in commit order, so a watcher can apply deltas blindly and end
// in the store's final state. Concurrent Puts of the same ID must never
// reach the watcher newest-first.
func TestWatcherCommitOrder(t *testing.T) {
	s := NewStore("pap")
	lastVersion := make(map[string]int)
	var mu sync.Mutex
	var outOfOrder []string
	s.Watch(func(u Update) {
		mu.Lock()
		defer mu.Unlock()
		if u.Deleted {
			return
		}
		if u.Version != lastVersion[u.ID]+1 {
			outOfOrder = append(outOfOrder,
				fmt.Sprintf("%s: saw version %d after %d", u.ID, u.Version, lastVersion[u.ID]))
		}
		lastVersion[u.ID] = u.Version
		if u.Policy == nil {
			outOfOrder = append(outOfOrder, u.ID+": update without policy payload")
		}
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := s.Put(permitPolicy("contested")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(outOfOrder) > 0 {
		t.Fatalf("watcher saw updates out of commit order: %v", outOfOrder[:min(3, len(outOfOrder))])
	}
	if lastVersion["contested"] != 8*40 {
		t.Fatalf("final version = %d, want %d", lastVersion["contested"], 8*40)
	}
}

// TestWatchInstallNoLostUpdates races WatchInstall against a writer and
// asserts the atomicity contract: the first update a freshly registered
// watcher sees is exactly the successor of the version the install
// snapshot observed — no update can commit in between, so a delta-driven
// consumer starting from the snapshot misses nothing.
func TestWatchInstallNoLostUpdates(t *testing.T) {
	s := NewStore("pap")
	if _, err := s.Put(permitPolicy("p")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			if _, err := s.Put(permitPolicy("p")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var snap int
	var mu sync.Mutex
	first := -1
	err := s.WatchInstall(func(st *Store) error {
		e, err := st.Get("p")
		if err != nil {
			return err
		}
		snap, err = strconv.Atoi(e.(*policy.Policy).Version)
		return err
	}, func(u Update) {
		mu.Lock()
		defer mu.Unlock()
		if first < 0 {
			first = u.Version
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	if first >= 0 && first != snap+1 {
		t.Fatalf("first watched version = %d after snapshot of version %d: an update was lost in the watch window", first, snap)
	}
}
