package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/workload"
)

// TestClusterConcurrentDecideAndRebalance drives parallel Decide and
// DecideBatch traffic against a cluster that is simultaneously growing and
// shrinking. Run under -race. The policy base answers Permit or Deny for
// every workload request, so any Indeterminate or NotApplicable verdict
// would mean a request was routed to a shard that did not hold its
// policies mid-rebalance.
func TestClusterConcurrentDecideAndRebalance(t *testing.T) {
	gen := workload.NewGenerator(workload.Config{
		Users: 50, Resources: 300, Roles: 5, Seed: 7,
	})
	router, err := New("c", Config{
		Shards:        4,
		Replicas:      2,
		EngineOptions: []pdp.Option{pdp.WithResolver(gen.Directory("idp"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.SetRoot(gen.PolicyBase("base")); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	const (
		deciders   = 4
		batchers   = 2
		iterations = 200
	)
	requests := make([][]*policy.Request, deciders+batchers)
	for i := range requests {
		requests[i] = gen.Requests(iterations)
	}

	var wg sync.WaitGroup
	fail := make(chan string, 1)
	report := func(msg string) {
		select {
		case fail <- msg:
		default:
		}
	}

	for d := 0; d < deciders; d++ {
		wg.Add(1)
		go func(reqs []*policy.Request) {
			defer wg.Done()
			for _, req := range reqs {
				res := policy.Decide(context.Background(), router, req, at)
				if res.Decision != policy.DecisionPermit && res.Decision != policy.DecisionDeny {
					report("Decide returned " + res.Decision.String() + " during rebalance")
					return
				}
			}
		}(requests[d])
	}
	for b := 0; b < batchers; b++ {
		wg.Add(1)
		go func(reqs []*policy.Request) {
			defer wg.Done()
			const batch = 20
			for i := 0; i+batch <= len(reqs); i += batch {
				for _, res := range policy.DecideBatch(context.Background(), router, reqs[i:i+batch], at) {
					if res.Decision != policy.DecisionPermit && res.Decision != policy.DecisionDeny {
						report("DecideBatch returned " + res.Decision.String() + " during rebalance")
						return
					}
				}
			}
		}(requests[deciders+b])
	}

	// The rebalancer grows and shrinks the cluster throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			name, err := router.AddShard()
			if err != nil {
				report("AddShard: " + err.Error())
				return
			}
			if err := router.RemoveShard(name); err != nil {
				report("RemoveShard: " + err.Error())
				return
			}
		}
	}()

	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if got := router.Stats().Rebalances; got != 40 {
		t.Fatalf("Rebalances = %d, want 40", got)
	}
}

// TestClusterConcurrentBatchSameShard hammers one shard group with
// overlapping batches to exercise the engine's batch path under
// contention.
func TestClusterConcurrentBatchSameShard(t *testing.T) {
	gen := workload.NewGenerator(workload.Config{
		Users: 20, Resources: 50, Roles: 5, Seed: 9,
	})
	router, err := New("c", Config{
		Shards:        1,
		EngineOptions: []pdp.Option{pdp.WithResolver(gen.Directory("idp"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.SetRoot(gen.PolicyBase("base")); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	reqs := gen.Requests(100)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				for _, res := range policy.DecideBatch(context.Background(), router, reqs, at) {
					if res.Decision != policy.DecisionPermit && res.Decision != policy.DecisionDeny {
						t.Errorf("unexpected decision %s", res.Decision)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
