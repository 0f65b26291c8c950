package pap

import (
	"fmt"

	"repro/internal/policy"
)

// Backend is the optional durability layer beneath a Store: a write-ahead
// log (internal/store) or a test double. Commit is called once per write —
// one update for a Put or Delete, all of them for a PutAll — with writers
// serialised in commit order, the same order watchers later observe,
// strictly before the write becomes visible to readers and before any
// watcher runs. An error from Commit aborts the write: the store is left
// untouched and the caller's Put, PutAll or Delete fails, so an
// acknowledged write is always durable and a durable log never contains a
// write the store did not acknowledge... except for the records of a crash
// window, which recovery handles by replaying the log (committed-but-
// unacknowledged tail records are safe to re-apply because the client
// never saw the ack; a multi-update write may survive as a prefix of its
// updates, exactly as the same updates written one at a time would).
type Backend interface {
	Commit(...Update) error
}

// SetBackend attaches the durability layer. Writes committed while no
// backend is attached are volatile; recovery bootstrap
// (store.Log.Bootstrap) hydrates the store first and attaches the log
// last, so replayed state is not re-appended to the log, and the caller
// then runs Follow to install the recovered base as one root.
func (s *Store) SetBackend(b Backend) {
	s.notifyMu.Lock()
	defer s.notifyMu.Unlock()
	s.mu.Lock()
	s.backend = b
	s.mu.Unlock()
}

// Hydrate installs one recovered snapshot entry: the policy's latest
// version at its pre-crash version number, or a tombstone for a deleted
// policy (preserving the version counter so post-recovery Puts continue
// the numbering). Earlier versions were compacted away by the snapshot, so
// GetVersion reports them as not found. Hydrate bypasses both the backend
// and the watchers — it rebuilds state that is already durable — and
// refuses to overwrite an existing entry.
func (s *Store) Hydrate(id string, versions int, deleted bool, latest policy.Evaluable) error {
	if id == "" || versions < 1 {
		return fmt.Errorf("pap %s: hydrate %q: need an ID and at least one version", s.name, id)
	}
	if !deleted {
		if latest == nil {
			return fmt.Errorf("pap %s: hydrate %q: live entry without a policy", s.name, id)
		}
		if got := latest.EntityID(); got != id {
			return fmt.Errorf("pap %s: hydrate %q: policy carries ID %q", s.name, id, got)
		}
		if err := latest.Validate(); err != nil {
			return fmt.Errorf("pap %s: hydrate %q: %w", s.name, id, err)
		}
	}
	s.notifyMu.Lock()
	defer s.notifyMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.entries[id]; exists {
		return fmt.Errorf("pap %s: hydrate %q: entry already present", s.name, id)
	}
	vs := make([]policy.Evaluable, versions)
	if !deleted {
		vs[versions-1] = latest
	}
	s.entries[id] = &entry{versions: vs, deleted: deleted}
	return nil
}

// Replay applies one recovered WAL delta: a Put at exactly the version the
// log recorded, or a Delete. Like Hydrate it bypasses the backend and the
// watchers. A version that does not follow the entry's current history is
// corruption (the log replayed out of order or against the wrong
// snapshot) and is rejected rather than papered over.
func (s *Store) Replay(u Update) error {
	s.notifyMu.Lock()
	defer s.notifyMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if u.Deleted {
		ent, ok := s.entries[u.ID]
		if !ok || ent.deleted {
			return fmt.Errorf("pap %s: replay delete %q: no live entry", s.name, u.ID)
		}
		ent.deleted = true
		return nil
	}
	if u.Policy == nil {
		return fmt.Errorf("pap %s: replay %q: update without a policy", s.name, u.ID)
	}
	if got := u.Policy.EntityID(); got != u.ID {
		return fmt.Errorf("pap %s: replay %q: policy carries ID %q", s.name, u.ID, got)
	}
	if err := u.Policy.Validate(); err != nil {
		return fmt.Errorf("pap %s: replay %q: %w", s.name, u.ID, err)
	}
	ent, ok := s.entries[u.ID]
	if !ok {
		ent = &entry{}
		s.entries[u.ID] = ent
	}
	if want := len(ent.versions) + 1; u.Version != want {
		return fmt.Errorf("pap %s: replay %q: version %d does not follow %d",
			s.name, u.ID, u.Version, len(ent.versions))
	}
	ent.deleted = false
	ent.versions = append(ent.versions, u.Policy)
	return nil
}
