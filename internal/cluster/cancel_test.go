package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/policy"
)

// Cancellation semantics of the routed decision pipeline: a caller that
// runs out of time gets fail-closed Indeterminates promptly — never a
// hang on a slow shard, never a permit it did not earn.

// stallAllShards injects per-decision latency into every replica of every
// shard group.
func stallAllShards(t *testing.T, router *Router, d time.Duration) {
	t.Helper()
	for _, name := range router.Shards() {
		replicas, err := router.Replicas(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range replicas {
			r.SetStall(d)
		}
	}
}

// TestCancelMidBatchReturnsPromptlyFailClosed is the headline cancellation
// property: canceling mid-DecideBatch on a 4-shard router returns long
// before the stalled shards would have answered, with Indeterminate for
// every unfinished position.
func TestCancelMidBatchReturnsPromptlyFailClosed(t *testing.T) {
	const stall = 5 * time.Second
	_, router, gen := fixture(t, Config{Shards: 4}, 200)
	reqs := gen.Requests(64)
	stallAllShards(t, router, stall)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond) // let the batch get in flight
		cancel()
	}()
	start := time.Now()
	results := policy.DecideBatch(ctx, router, reqs, testEpoch)
	elapsed := time.Since(start)
	if elapsed >= stall {
		t.Fatalf("batch took %v; cancellation did not cut the stall short", elapsed)
	}
	for i, res := range results {
		if res.Decision != policy.DecisionIndeterminate {
			t.Fatalf("position %d: decision %s after cancellation, want Indeterminate", i, res.Decision)
		}
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("position %d: err %v does not carry context.Canceled", i, res.Err)
		}
	}
}

// TestDeadlineShedsOnlySlowShard checks partial progress under a deadline:
// with one shard stalled past the budget, positions owned by healthy
// shards keep their real verdicts while the slow shard's positions fail
// closed with the deadline cause.
func TestDeadlineShedsOnlySlowShard(t *testing.T) {
	const stall = 5 * time.Second
	single, router, _ := fixture(t, Config{Shards: 4}, 200)

	// Stall the last shard in dispatch order: the router dispatches groups
	// one after another in shard creation order, so the healthy groups
	// must come first for partial progress to be observable at all.
	shards := router.Shards()
	slow := shards[len(shards)-1]
	replicas, err := router.Replicas(slow)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range replicas {
		r.SetStall(stall)
	}

	// Build a batch that provably covers the slow shard and at least one
	// healthy shard.
	var reqs []*policy.Request
	slowOwned, healthyOwned := 0, 0
	for i := 0; i < 200 && len(reqs) < 128; i++ {
		resource := policyResource(i)
		if router.Owner(resource) == slow {
			slowOwned++
		} else {
			healthyOwned++
		}
		reqs = append(reqs, policy.NewAccessRequest("user-1", resource, "read"))
	}
	if slowOwned == 0 || healthyOwned == 0 {
		t.Fatalf("degenerate ownership split: slow=%d healthy=%d", slowOwned, healthyOwned)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	results := policy.DecideBatch(ctx, router, reqs, testEpoch)
	if elapsed := time.Since(start); elapsed >= stall {
		t.Fatalf("batch took %v; deadline did not bound the slow shard", elapsed)
	}

	shed, answered := 0, 0
	for i, res := range results {
		if router.Owner(reqs[i].ResourceID()) == slow {
			if res.Decision != policy.DecisionIndeterminate || !errors.Is(res.Err, context.DeadlineExceeded) {
				t.Fatalf("slow-shard position %d: got %s (%v), want deadline Indeterminate", i, res.Decision, res.Err)
			}
			shed++
			continue
		}
		want := policy.Decide(context.Background(), single, reqs[i], testEpoch)
		if res.Decision != want.Decision {
			t.Fatalf("healthy position %d: got %s, want %s", i, res.Decision, want.Decision)
		}
		answered++
	}
	if shed == 0 || answered == 0 {
		t.Fatalf("degenerate split: shed=%d answered=%d (want both non-zero)", shed, answered)
	}
}

// policyResource names the i-th generated resource (workload.ResourceID,
// re-derived here to keep the request construction explicit).
func policyResource(i int) string { return fmt.Sprintf("res-%d", i) }

// TestExpiredContextSingleDecide covers the per-request path: an already
// expired context yields an immediate fail-closed Indeterminate.
func TestExpiredContextSingleDecide(t *testing.T) {
	_, router, gen := fixture(t, Config{Shards: 4}, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := policy.Decide(ctx, router, gen.NextRequest(), testEpoch)
	if res.Decision != policy.DecisionIndeterminate || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("got %s (%v), want canceled Indeterminate", res.Decision, res.Err)
	}
}
