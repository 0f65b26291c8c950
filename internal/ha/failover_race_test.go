package ha

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
)

// TestFailoverDuringLiveBatches is the chaos-harness contract at the ha
// layer, run under -race in CI: replica r0 flaps down/up (SetDown from a
// chaos goroutine, with Probe reorders in between — exactly what
// /admin/chaos does to a live daemon) while several PEP goroutines stream
// batch decisions through the ensemble. With r1 permanently live, failover
// must answer every position of every batch conclusively and identically —
// a replica crash can cost a retry inside the ensemble, never a decision.
func TestFailoverDuringLiveBatches(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	r0 := NewFailable("r0", batchFixture(t, policy.DecisionPermit))
	r1 := NewFailable("r1", batchFixture(t, policy.DecisionPermit))
	ens := NewEnsemble("ens", Failover, r0, r1)
	reqs := batchRequests(64)

	const runFor = 150 * time.Millisecond
	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				r0.SetDown(false)
				return
			default:
			}
			r0.SetDown(i%2 == 0)
			if i%2 == 1 {
				// Reorder the failover chain concurrently with in-flight
				// batches, but only after a revive: the next crash then
				// leaves the dead replica first in the walk, so the skip
				// path (the failover proper) gets real coverage.
				ens.Probe()
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var batches, wrong atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(runFor)
			for time.Now().Before(deadline) {
				for _, res := range policy.DecideBatch(context.Background(), ens, reqs, at) {
					if res.Decision != policy.DecisionPermit {
						wrong.Add(1)
					}
				}
				batches.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	chaosWG.Wait()

	if batches.Load() == 0 {
		t.Fatal("no batches decided")
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d non-Permit decisions across %d live batches during failover flapping",
			n, batches.Load())
	}
	// The flapping replica must have been both used and routed around.
	if r0.Queries() == 0 || r1.Queries() == 0 {
		t.Fatalf("replica queries r0=%d r1=%d: failover path never exercised",
			r0.Queries(), r1.Queries())
	}
	if ens.Stats().Failovers == 0 {
		t.Fatal("no failovers recorded despite r0 flapping")
	}
}

// TestSetDownMidSingleDecisionStream is the single-decision flavour: the
// one-position failover walk under concurrent SetDown must stay race-clean
// and conclusive with one replica always live.
func TestSetDownMidSingleDecisionStream(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	r0 := NewFailable("r0", batchFixture(t, policy.DecisionPermit))
	r1 := NewFailable("r1", batchFixture(t, policy.DecisionPermit))
	ens := NewEnsemble("ens", Failover, r0, r1)
	req := policy.NewAccessRequest("u", "res", "read")

	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r0.SetDown(i%2 == 0)
		}
	}()

	var wrong atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if res := policy.Decide(context.Background(), ens, req, at); res.Decision != policy.DecisionPermit {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	chaosWG.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d non-Permit decisions during SetDown flapping", n)
	}
}
