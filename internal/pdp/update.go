package pdp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/policy"
)

// ErrNotIncremental reports an update the engine cannot apply as a delta —
// no root is loaded yet, or the root is not a policy set whose children can
// be patched one at a time. Callers fall back to a full SetRoot rebuild.
var ErrNotIncremental = errors.New("pdp: root cannot be patched incrementally")

// Update describes one change to a single direct child of the root policy
// set: the delta unit of the PAP→PDP propagation pipeline. A nil Child
// removes the identified child; a non-nil Child replaces the child with the
// same ID, or inserts it (in ID order, matching pap.Store.BuildRoot's
// deterministic child ordering) when no child carries that ID.
type Update struct {
	// ID names the root child being changed.
	ID string
	// Child is the new version of the child, nil for removal.
	Child policy.Evaluable
}

// ApplyUpdate patches a single root child in place of a full rebuild: the
// delta path of live policy administration. Only the new child is
// validated (the rest of the root was validated when installed), the
// compiled program is patched rather than rebuilt, and — the point of the
// exercise — only cached decisions whose resource keys the old or new
// child constrains are invalidated. When either side of the change is a
// catch-all (its target does not pin resource-id), any cached decision
// could be affected and the whole cache is flushed, exactly as SetRoot
// would.
//
// The update is published as a fresh snapshot: readers that loaded the
// previous one keep evaluating a consistent root/program pair, and the
// snapshot swap happens before the cache sweep so the cache's generation
// guard can reject any stale fill that raced the change. The root must be a
// *policy.PolicySet; otherwise ErrNotIncremental is returned and the caller
// should rebuild via SetRoot.
func (e *Engine) ApplyUpdate(u Update) error {
	if u.ID == "" {
		return fmt.Errorf("pdp %s: update with empty ID", e.name)
	}
	if u.Child != nil {
		if got := u.Child.EntityID(); got != u.ID {
			return fmt.Errorf("pdp %s: update ID %q does not match child ID %q", e.name, u.ID, got)
		}
		if err := u.Child.Validate(); err != nil {
			return fmt.Errorf("pdp %s: %w", e.name, err)
		}
	}

	e.writerMu.Lock()
	defer e.writerMu.Unlock()
	snap := e.snap.Load()
	var set *policy.PolicySet
	if snap != nil {
		set, _ = snap.root.(*policy.PolicySet)
	}
	if set == nil {
		return fmt.Errorf("pdp %s: %w", e.name, ErrNotIncremental)
	}

	newSet, pos, delta, oldChild := set.PatchChild(u.ID, u.Child)
	if newSet == nil {
		return nil // removing an absent child is a no-op
	}
	next := &snapshot{root: newSet, epoch: snap.epoch + 1}
	if snap.prog != nil {
		// Delta recompile: only the new child is lowered; posting lists are
		// remapped, untouched children shared. A nil program stays nil —
		// patching a child cannot cure the root-level construct that made
		// the base uncompilable.
		start := time.Now()
		next.prog = snap.prog.patched(newSet, pos, delta, u.Child)
		e.observeCompile(time.Since(start))
	}
	// Publish before invalidating: in-flight evaluations of the old
	// snapshot either observe the moved cache generation and skip their
	// fill, or land before the sweep below and are removed by it.
	e.snap.Store(next)
	e.stats.updates.Add(1)
	e.invalidate(oldChild, u.Child)
	return nil
}

// invalidate drops exactly the cached decisions the change can affect:
// entries whose resource key the old or new child constrains, swept shard
// by shard under each shard's own lock. A catch-all on either side forces
// a full flush. Callers hold e.writerMu.
func (e *Engine) invalidate(oldChild, newChild policy.Evaluable) {
	if e.cache == nil {
		return
	}
	affected := make(map[string]struct{}, 4)
	for _, ch := range []policy.Evaluable{oldChild, newChild} {
		if ch == nil {
			continue
		}
		keys, catchAll := policy.ResourceKeys(ch)
		if catchAll {
			e.cache.Flush()
			e.stats.cacheInvalidations.Add(1)
			return
		}
		for _, k := range keys {
			affected[k] = struct{}{}
		}
	}
	e.stats.cacheInvalidations.Add(e.cache.Invalidate(affected))
}
