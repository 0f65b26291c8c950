package store

import (
	"sync"

	"repro/internal/pap"
)

// Memory is an in-memory pap.Backend double for tests: it records every
// committed update in commit order and can be told to fail, which lets a
// test pin the store's durability-before-visibility contract (a failed
// commit must leave the store unchanged and the write unacknowledged)
// without touching a filesystem.
type Memory struct {
	mu      sync.Mutex
	updates []pap.Update
	err     error
}

// NewMemory builds an empty in-memory backend.
func NewMemory() *Memory { return &Memory{} }

// Commit implements pap.Backend.
func (m *Memory) Commit(us ...pap.Update) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	m.updates = append(m.updates, us...)
	return nil
}

// FailWith makes every subsequent Commit return err (nil heals it).
func (m *Memory) FailWith(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.err = err
}

// Updates returns a copy of the committed updates in commit order.
func (m *Memory) Updates() []pap.Update {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]pap.Update, len(m.updates))
	copy(out, m.updates)
	return out
}
