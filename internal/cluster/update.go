package cluster

import (
	"errors"
	"fmt"

	"repro/internal/pdp"
	"repro/internal/policy"
)

// ApplyUpdate routes a single-child policy delta to just the shard groups
// whose ownership the change touches, leaving the other N-1 shards' policy
// bases — and, critically, their decision caches — untouched. The owning
// shards patch their subsets through pdp.Engine.ApplyUpdate, so within a
// touched shard only the cached decisions for the changed child's resource
// keys are invalidated.
//
// A replace whose keys moved between shards decomposes into a delete on the
// old owners and an insert on the new; a catch-all child (no resource-id
// equality constraint on either side) is replicated everywhere and touches
// every shard, exactly as repartitioning would. Owners come from the same
// ring lookup that routes requests, so no routing state changes here.
//
// The router root must be a partitionable *policy.PolicySet; otherwise the
// error wraps pdp.ErrNotIncremental and the caller should fall back to a
// full SetRoot. If an engine rejects its patch mid-way, the router restores
// consistency with a full repartition of the updated root before returning.
func (r *Router) ApplyUpdate(u pdp.Update) error {
	if u.ID == "" {
		return fmt.Errorf("cluster %s: update with empty ID", r.name)
	}
	if u.Child != nil {
		if got := u.Child.EntityID(); got != u.ID {
			return fmt.Errorf("cluster %s: update ID %q does not match child ID %q", r.name, u.ID, got)
		}
		if err := u.Child.Validate(); err != nil {
			return fmt.Errorf("cluster %s: %w", r.name, err)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	set, ok := r.root.(*policy.PolicySet)
	if !ok || set == nil {
		return fmt.Errorf("cluster %s: %w", r.name, pdp.ErrNotIncremental)
	}

	// Patch the unpartitioned root copy-on-write through the same
	// policy.PatchChild rule the engines apply, so the router's root and
	// the engine subsets cannot diverge.
	newRoot, _, delta, oldChild := set.PatchChild(u.ID, u.Child)
	if newRoot == nil {
		return nil // removing an absent child is a no-op
	}
	oldOwners := r.ownersLocked(oldChild)
	newOwners := r.ownersLocked(u.Child)
	// An engine-subset insert happens on a global insert (delta > 0) and
	// on a replace whose keys reached a shard that did not serve the old
	// child. On a root whose children are not ID-ordered (a caller-built
	// SetRoot base rather than a BuildRoot one), the router's global
	// position and an engine's independent subset insert search could
	// disagree, so such updates take the full repartition path instead of
	// the delta.
	needsInsert := delta > 0
	for o := range newOwners {
		if newOwners[o] && !oldOwners[o] {
			needsInsert = true
		}
	}
	if needsInsert && !set.ChildrenSortedByID() {
		r.root = newRoot
		if err := r.repartitionLocked(true); err != nil {
			return fmt.Errorf("cluster %s: update %s: %w", r.name, u.ID, err)
		}
		r.stats.updates.Add(1)
		r.stats.updateShardsTouched.Add(int64(len(r.shards)))
		return nil
	}
	r.root = newRoot

	touched := 0
	for o, s := range r.shards {
		if !oldOwners[o] && !newOwners[o] {
			continue
		}
		touched++
		op := pdp.Update{ID: u.ID} // delete from shards losing the child
		if newOwners[o] {
			op = u // engine replaces or inserts by ID
		}
		for _, engine := range s.engines {
			if err := engine.ApplyUpdate(op); err != nil {
				// A half-applied delta would desynchronise replicas;
				// restore consistency with a full reinstall of the
				// updated root.
				if ferr := r.repartitionLocked(true); ferr != nil {
					return fmt.Errorf("cluster %s: update %s: %w", r.name, u.ID, errors.Join(err, ferr))
				}
				r.stats.updates.Add(1)
				r.stats.updateShardsTouched.Add(int64(len(r.shards)))
				return nil
			}
		}
	}

	r.stats.updates.Add(1)
	r.stats.updateShardsTouched.Add(int64(touched))
	return nil
}

// ownersLocked marks, by position in r.shards, the shards serving a child:
// the ring owners of its exact resource keys, or every shard for a
// catch-all. A nil child is served nowhere. Callers hold r.mu.
func (r *Router) ownersLocked(ch policy.Evaluable) []bool {
	owners := make([]bool, len(r.shards))
	if ch == nil {
		return owners
	}
	keys, catchAll := policy.ResourceKeys(ch)
	for o := range owners {
		owners[o] = catchAll
	}
	for _, k := range keys {
		owners[ringOwner(r.points, k)] = true
	}
	return owners
}

// EngineStats sums replica engine counters across every shard group
// (pdp.SumStats): the cluster-wide view of evaluations, cache hits and
// incremental updates the churn experiment and benchmarks report. Each
// engine aggregates its own atomic stat stripes (and cache-shard
// occupancy) at read time, so this never pauses the decision hot path.
func (r *Router) EngineStats() pdp.Stats {
	return pdp.SumStats(r.engines())
}

// engines lists every replica engine, shard by shard in creation order.
func (r *Router) engines() []*pdp.Engine {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*pdp.Engine
	for _, s := range r.shards {
		out = append(out, s.engines...)
	}
	return out
}
