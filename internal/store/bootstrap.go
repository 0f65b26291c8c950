package store

import (
	"fmt"

	"repro/internal/pap"
)

// Bootstrap rebuilds the recovered state into a fresh pap.Store and
// attaches the log as its durability backend:
//
//  1. snapshot entries hydrate the store (version counters, tombstones
//     and latest policies, without waking watchers);
//  2. each WAL tail record replays into the store, again without waking
//     watchers;
//  3. the log becomes the store's Backend, so every later write is
//     committed before it is acknowledged.
//
// The store then holds exactly the acknowledged pre-crash state. A
// decision point catches up by following it (pap.Follow), which installs
// the recovered base as one root and streams every later write as a
// delta.
func (l *Log) Bootstrap(s *pap.Store) error {
	for _, ent := range l.recoveredSnap {
		if err := s.Hydrate(ent.ID, ent.Versions, ent.Deleted, ent.Policy); err != nil {
			return fmt.Errorf("store: bootstrap: %w", err)
		}
	}
	for _, u := range l.recoveredTail {
		if err := s.Replay(u); err != nil {
			return fmt.Errorf("store: bootstrap: %w", err)
		}
	}
	// The recovered trees are now owned by the store; holding a second
	// copy for the log's lifetime would double the resident policy base.
	// The counts live on in Stats.
	l.recoveredSnap, l.recoveredTail = nil, nil
	s.SetBackend(l)
	return nil
}
