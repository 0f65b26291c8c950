package discovery

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
)

// TestConcurrentDiscoveryUnderChurn runs parallel enforcement queries
// while the registry churns (nodes registered and deregistered) and nodes
// crash and recover. Every returned decision must still be a verified one
// (Permit/Deny from a live honest node) or a clean Indeterminate.
func TestConcurrentDiscoveryUnderChurn(t *testing.T) {
	f := newFixture(t)
	const (
		clients = 6
		queries = 300
	)
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				res := policy.Decide(context.Background(), f.client, doctorReq("alice", "read"), at.Add(time.Duration(i)*time.Second))
				switch res.Decision {
				case policy.DecisionPermit:
				case policy.DecisionIndeterminate:
					// Acceptable only as fail-closed exhaustion.
					if res.Err == nil {
						errs <- "indeterminate without error"
						return
					}
				default:
					errs <- "unexpected decision " + res.Decision.String()
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		entry := Entry{Node: "pdp.med.2", Authority: "authority.med", Cert: nil}
		for i := 0; i < 200; i++ {
			switch i % 4 {
			case 0:
				f.net.SetNodeDown("pdp.med.1", true)
			case 1:
				f.net.SetNodeDown("pdp.med.1", false)
			case 2:
				f.reg.Deregister(entry.Authority, entry.Node)
			case 3:
				// Re-register with the real certificate captured below.
				f.reg.Register(f.med2Entry)
			}
			_ = f.client.Stats()
		}
		f.net.SetNodeDown("pdp.med.1", false)
		f.reg.Register(f.med2Entry)
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatalf("concurrent discovery failed: %s", msg)
	}
}
