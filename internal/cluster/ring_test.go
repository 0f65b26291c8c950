package cluster

import (
	"fmt"
	"testing"

	"repro/internal/policy"
)

// testShards builds bare shards named s<from> .. s<to-1>: all the ring
// reads of a shard is its name.
func testShards(from, to int) []*shard {
	var out []*shard
	for i := from; i < to; i++ {
		out = append(out, &shard{name: fmt.Sprintf("s%d", i)})
	}
	return out
}

// ownerName resolves key on the ring derived from shards to a shard name.
func ownerName(shards []*shard, points []point, key string) string {
	return shards[ringOwner(points, key)].name
}

func TestRingOwnerDeterministic(t *testing.T) {
	a, b := testShards(0, 3), testShards(0, 3)
	pa, pb := ringPoints(a), ringPoints(b)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("res-%d", i)
		if oa, ob := ownerName(a, pa, key), ownerName(b, pb, key); oa != ob {
			t.Fatalf("rings disagree on %s: %s vs %s", key, oa, ob)
		}
	}
}

func TestRingBalance(t *testing.T) {
	const nodes = 4
	shards := testShards(0, nodes)
	points := ringPoints(shards)
	counts := make(map[string]int, nodes)
	const keys = 10000
	for i := 0; i < keys; i++ {
		counts[ownerName(shards, points, fmt.Sprintf("res-%d", i))]++
	}
	for node, n := range counts {
		share := float64(n) / keys
		// Perfect balance is 25%; virtual nodes should hold every shard
		// within a loose 2x band.
		if share < 0.125 || share > 0.5 {
			t.Errorf("node %s owns %.1f%% of keys, outside [12.5%%, 50%%]", node, 100*share)
		}
	}
}

// TestRingStabilityOnMembershipChange adds a fifth shard to the end of the
// list, then removes the first: a key moves only to the added shard, or
// only away from the removed one.
func TestRingStabilityOnMembershipChange(t *testing.T) {
	const nodes = 4
	shards := testShards(0, nodes)
	points := ringPoints(shards)
	const keys = 10000
	before := make([]string, keys)
	for i := range before {
		before[i] = ownerName(shards, points, fmt.Sprintf("res-%d", i))
	}

	grown := testShards(0, nodes+1)
	grownPoints := ringPoints(grown)
	movedOnAdd := 0
	for i := range before {
		owner := ownerName(grown, grownPoints, fmt.Sprintf("res-%d", i))
		if owner != before[i] {
			if owner != "s4" {
				t.Fatalf("key res-%d moved between pre-existing nodes (%s -> %s)", i, before[i], owner)
			}
			movedOnAdd++
		}
	}
	// Expected move share is 1/5; allow up to double.
	if share := float64(movedOnAdd) / keys; share > 0.4 {
		t.Errorf("add moved %.1f%% of keys, want ≲ 20%%", 100*share)
	}

	// Removing s0 shifts every other shard's position down by one; the
	// names, and so the keys they own, must stay put.
	shrunk := testShards(1, nodes)
	shrunkPoints := ringPoints(shrunk)
	movedOnRemove := 0
	for i := range before {
		owner := ownerName(shrunk, shrunkPoints, fmt.Sprintf("res-%d", i))
		if before[i] != "s0" && owner != before[i] {
			t.Fatalf("removing s0 moved res-%d (%s -> %s)", i, before[i], owner)
		}
		if before[i] == "s0" {
			movedOnRemove++
		}
	}
	if share := float64(movedOnRemove) / keys; share > 0.5 {
		t.Errorf("remove moved %.1f%% of keys, want ≲ 25%%", 100*share)
	}
}

// ownerSink keeps BenchmarkRouterOwner's lookups from being optimised out.
var ownerSink int

// BenchmarkRouterOwner times the routed owner lookup, the one run for
// every decision, over 8 192 res-%05d keys that the installed base
// constrains, at 2 and 16 shards (256 and 2 048 ring points).
func BenchmarkRouterOwner(b *testing.B) {
	const keys = 8192
	names := make([]string, keys)
	children := make([]policy.Evaluable, keys)
	for i := range names {
		names[i] = fmt.Sprintf("res-%05d", i)
		children[i] = updPolicy(names[i], 0)
	}
	root := policy.NewPolicySet("root").Combining(policy.FirstApplicable).Add(children...).Build()
	for _, shards := range []int{2, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			router, err := New("bench", Config{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			if err := router.SetRoot(root); err != nil {
				b.Fatal(err)
			}
			router.mu.RLock()
			defer router.mu.RUnlock()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ownerSink += ringOwner(router.points, names[i%keys])
			}
		})
	}
}
