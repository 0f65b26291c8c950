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
// validated (the rest of the root was validated when installed) and the
// compiled program is patched rather than rebuilt.
//
// The update is published as a fresh snapshot: readers that loaded the
// previous one keep evaluating a consistent root/program pair. The root
// must be a *policy.PolicySet; otherwise ErrNotIncremental is returned and
// the caller should rebuild via SetRoot.
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

	newSet, pos, delta, _ := set.PatchChild(u.ID, u.Child)
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
	e.snap.Store(next)
	e.stats.updates.Add(1)
	return nil
}
