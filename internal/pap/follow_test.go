package pap

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pdp"
	"repro/internal/policy"
)

// resourcePolicy permits reading res and denies every other action on it.
func resourcePolicy(id, res string) *policy.Policy {
	return policy.NewPolicy(id).
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID(res)).
		Rule(policy.Permit("allow").When(policy.MatchActionID("read")).Build()).
		Rule(policy.Deny("default").Build()).
		Build()
}

// probe decides read and write on res-0..res-(n-1) and renders each
// result as its decision plus the obligations it carries.
func probe(d policy.Decider, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		for _, action := range []string{"read", "write"} {
			res := policy.Decide(context.Background(), d, policy.NewAccessRequest("u", fmt.Sprintf("res-%d", i), action), time.Time{})
			s := res.Decision.String()
			for _, ob := range res.Obligations {
				s += "+" + ob.ID
			}
			out = append(out, s)
		}
	}
	return out
}

// TestFollow pins the PAP→PDP pipeline: the point installs the store's
// live policies under the Root's shape, stays current through deltas and
// rebuilds, and reports every failed refresh.
func TestFollow(t *testing.T) {
	const n = 6
	// Only reads are in the root's target, and a permit carries "audit".
	shape := Root{
		ID:          "root",
		Combining:   policy.DenyOverrides,
		Target:      policy.NewTarget(policy.MatchActionID("read")),
		Obligations: []policy.Obligation{{ID: "audit", FulfillOn: policy.EffectPermit}},
	}
	put := func(t *testing.T, s *Store, i int) {
		t.Helper()
		if _, err := s.Put(resourcePolicy(fmt.Sprintf("p-%d", i), fmt.Sprintf("res-%d", i))); err != nil {
			t.Error(err)
		}
	}
	follow := func(t *testing.T, e *pdp.Engine, s *Store, onErr func(error)) {
		t.Helper()
		if err := Follow(e, s, shape, onErr); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		// drive writes to s around the Follow call it makes itself.
		drive func(t *testing.T, s *Store, e *pdp.Engine, onErr func(error))
		// fresh: afterwards the point decides like a fresh BuildRoot.
		fresh    bool
		wantErrs int
	}{
		{"pre-populated store installs the root's shape", func(t *testing.T, s *Store, e *pdp.Engine, onErr func(error)) {
			for i := 0; i < n; i++ {
				put(t, s, i)
			}
			follow(t, e, s, onErr)
			got := probe(e, 1)
			if want := []string{"Permit+audit", "NotApplicable"}; got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("res-0 read, write = %v, want %v (root target or obligations dropped)", got, want)
			}
		}, true, 0},
		{"concurrent writers lose no update", func(t *testing.T, s *Store, e *pdp.Engine, onErr func(error)) {
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := 0; k < 60; k++ {
						i := (k + w) % n
						if k%5 == 4 {
							_ = s.Delete(fmt.Sprintf("p-%d", i)) // ErrNotFound when already gone
							continue
						}
						put(t, s, i)
					}
				}(w)
			}
			follow(t, e, s, onErr)
			wg.Wait()
		}, true, 0},
		{"a bare-policy root is rebuilt", func(t *testing.T, s *Store, e *pdp.Engine, onErr func(error)) {
			put(t, s, 0)
			follow(t, e, s, onErr)
			if err := e.SetRoot(resourcePolicy("bare", "res-1")); err != nil {
				t.Fatal(err)
			}
			put(t, s, 2)
			if got, ok := e.Root().(*policy.PolicySet); !ok || got.ID != shape.ID {
				t.Fatalf("root after write = %v, want the rebuilt %s", e.Root(), shape.ID)
			}
		}, true, 0},
		{"a failed refresh reports", func(t *testing.T, s *Store, e *pdp.Engine, onErr func(error)) {
			p := resourcePolicy("p-0", "res-0")
			if _, err := s.Put(p); err != nil {
				t.Fatal(err)
			}
			follow(t, e, s, onErr)
			if err := e.SetRoot(resourcePolicy("bare", "res-1")); err != nil {
				t.Fatal(err)
			}
			p.Combining = 0 // the store's copy goes bad, so the rebuild fails
			put(t, s, 2)
		}, false, 1},
		{"a nil onErr is tolerated", func(t *testing.T, s *Store, e *pdp.Engine, _ func(error)) {
			p := resourcePolicy("p-0", "res-0")
			if _, err := s.Put(p); err != nil {
				t.Fatal(err)
			}
			follow(t, e, s, nil)
			if err := e.SetRoot(resourcePolicy("bare", "res-1")); err != nil {
				t.Fatal(err)
			}
			p.Combining = 0
			put(t, s, 2)
			if got := e.Root().EntityID(); got != "bare" {
				t.Fatalf("root after a failed rebuild = %s, want bare", got)
			}
		}, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore("follow")
			e := pdp.New("follow")
			var mu sync.Mutex
			var errs []error
			tc.drive(t, s, e, func(err error) {
				mu.Lock()
				defer mu.Unlock()
				errs = append(errs, err)
			})
			if len(errs) != tc.wantErrs {
				t.Fatalf("refresh errors = %v, want %d", errs, tc.wantErrs)
			}
			for _, err := range errs {
				if want := "pap follow: refresh p-2: "; !strings.HasPrefix(err.Error(), want) {
					t.Errorf("refresh error %q does not start %q", err, want)
				}
			}
			if !tc.fresh {
				return
			}
			root, err := s.BuildRoot(shape)
			if err != nil {
				t.Fatal(err)
			}
			ref := pdp.New("reference")
			if err := ref.SetRoot(root); err != nil {
				t.Fatal(err)
			}
			got, want := probe(e, n+1), probe(ref, n+1)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("probe %d = %s, fresh BuildRoot decides %s", i, got[i], want[i])
				}
			}
		})
	}
}
