package pdp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
)

// TestStressDecideAgainstAdministration is the concurrency-model property
// test of the lock-free hot path (run with -race): reader goroutines
// hammer single and batch decisions through a front cache over one engine
// while one administrator applies incremental updates (each followed by
// the front cache's invalidation, as pdpd's store watchers run them),
// retires every cached decision and reinstalls equivalent roots. It
// extends the delta-equivalence property to the RCU engine with a
// freshness assertion: once the update that invalidates a decision has
// committed, no reader may be served the superseded decision again.
//
// The administrator brackets every ApplyUpdate and its invalidation
// between a started[r] and a committed[r] version bump. A reader snapshots committed[r] before its
// decision and started[r] after it: if the two agree at version v, the
// whole decision ran in a window where v was the only committed policy for
// the resource and no newer update had begun, so the decision must be
// exactly v's (read permitted iff v is even). Any stale cache entry or
// torn snapshot surfaces as a parity mismatch.
func TestStressDecideAgainstAdministration(t *testing.T) {
	const (
		resources = 6
		readers   = 4
		updates   = 400
	)
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	e := New("stress")
	front := frontOver(e, time.Hour, 8192, nil)
	model := make(map[string]policy.Evaluable, resources)
	for i := 0; i < resources; i++ {
		p := churnPolicy(fmt.Sprintf("res-%d", i), 0)
		model[p.ID] = p
	}
	if err := e.SetRoot(modelRoot(model)); err != nil {
		t.Fatal(err)
	}

	var started, committed [resources]atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, readers)

	// expect reports whether version v of a resource's policy permits the
	// action (churnPolicy: even versions permit read, odd permit write).
	expect := func(v int64, action string) policy.Decision {
		permitted := "read"
		if v%2 == 1 {
			permitted = "write"
		}
		if action == permitted {
			return policy.DecisionPermit
		}
		return policy.DecisionDeny
	}

	check := func(r int, action string, decide func(req *policy.Request) policy.Result) bool {
		req := policy.NewAccessRequest("alice", fmt.Sprintf("res-%d", r), action)
		before := committed[r].Load()
		res := decide(req)
		after := started[r].Load()
		if before != after {
			return true // an update overlapped: both versions are legal
		}
		if want := expect(before, action); res.Decision != want {
			errs <- fmt.Sprintf("res-%d %s at stable version %d: got %v, want %v (stale decision served after its invalidating update committed)",
				r, action, before, res.Decision, want)
			return false
		}
		return true
	}

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]*policy.Request, resources)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := (i + w) % resources
				action := "read"
				if i%2 == 1 {
					action = "write"
				}
				if !check(r, action, func(req *policy.Request) policy.Result { return policy.Decide(context.Background(), front, req, at) }) {
					return
				}
				// Every few rounds, push the same freshness property
				// through the batch scatter path.
				if i%8 == 0 {
					if !check(r, action, func(req *policy.Request) policy.Result {
						for j := range batch {
							batch[j] = policy.NewAccessRequest("alice", fmt.Sprintf("res-%d", j), action)
						}
						batch[0] = req
						return policy.DecideBatch(context.Background(), front, batch, at)[0]
					}) {
						return
					}
				}
			}
		}(w)
	}

	version := make([]int64, resources)
	for v := 1; v <= updates; v++ {
		r := (v * 5) % resources
		version[r]++
		p := churnPolicy(fmt.Sprintf("res-%d", r), int(version[r]))
		started[r].Add(1)
		if err := applyFront(e, front, Update{ID: p.ID, Child: p}); err != nil {
			t.Fatal(err)
		}
		committed[r].Add(1)
		model[p.ID] = p
		switch {
		case v%97 == 0:
			// Reinstalling an equivalent root must be invisible to the
			// freshness property (it never rolls back).
			if err := e.SetRoot(modelRoot(model)); err != nil {
				t.Fatal(err)
			}
		case v%41 == 0:
			// A catch-all change retires every cached decision.
			front.InvalidateChange(catchAllPolicy(0), nil)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	// Quiesced equivalence: the churned engine must now decide exactly as
	// a fresh engine built from the final model.
	ref := New("ref")
	if err := ref.SetRoot(modelRoot(model)); err != nil {
		t.Fatal(err)
	}
	for _, req := range churnRequests(resources) {
		got := policy.Decide(context.Background(), front, req, at)
		want := policy.Decide(context.Background(), ref, req, at)
		if got.Decision != want.Decision || got.By != want.By {
			t.Fatalf("%s on %s after stress = %v by %s, want %v by %s",
				req.ActionID(), req.ResourceID(), got.Decision, got.By, want.Decision, want.By)
		}
	}
}
