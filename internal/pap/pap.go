// Package pap implements Policy Administration Points: versioned policy
// repositories with validation, change notification, and self-protection
// (Sections 2.2 and 3.2 of the paper).
//
// A Store holds validated policies with full version history and notifies
// watchers of changes, which the syndication and PDP layers build on. A
// GuardedStore protects the administrative interface itself with the same
// PEP/PDP mechanism that protects ordinary resources — the administrative
// self-protection design the paper highlights (Section 3.2, "Security of
// Access Control Systems"), which keeps the whole system manageable with a
// single policy language.
package pap

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/pdp"
	"repro/internal/pep"
	"repro/internal/policy"
)

// Store errors, matched with errors.Is.
var (
	// ErrNotFound reports an unknown policy ID or version.
	ErrNotFound = errors.New("pap: policy not found")
	// ErrForbidden reports an administrative request the guard denied.
	ErrForbidden = errors.New("pap: administrative request denied")
)

// Update describes one change to the store. Carrying the new policy itself
// makes the notification a self-contained delta: watchers feed it straight
// into pdp.Engine.ApplyUpdate / cluster.Router.ApplyUpdate without a
// read-back that could race later writes.
type Update struct {
	// ID names the changed policy.
	ID string
	// Version is the new version number, 0 for deletions.
	Version int
	// Deleted marks removal.
	Deleted bool
	// Policy is the stored policy this update installed, nil for
	// deletions.
	Policy policy.Evaluable
}

// Watcher receives store change notifications. Watchers run synchronously
// in commit order: the store serialises notification delivery, so a
// watcher observing version n for a policy has already observed every
// earlier version. Watchers may read from the store but must not write to
// it (a write from a watcher would self-deadlock on the notification
// lock).
type Watcher func(Update)

// entry is the version history of one policy.
type entry struct {
	versions []policy.Evaluable // index i holds version i+1
	deleted  bool
}

// Store is a thread-safe versioned policy repository.
type Store struct {
	name string

	// notifyMu serialises change notification: it is taken before mu by
	// every writer and held until the watchers have run, so watchers see
	// updates in commit order — without it, two concurrent Puts of the
	// same policy could reach a watcher newest-first and leave a PDP
	// serving the older version (the PAP→PDP refresh race).
	notifyMu sync.Mutex

	mu       sync.RWMutex
	entries  map[string]*entry
	watchers []Watcher

	// backend, when attached, makes writes durable: every change is
	// committed to it — under notifyMu, so in commit order — before it
	// becomes visible to readers or watchers, and a failed commit aborts
	// the write entirely. See Backend in persist.go.
	backend Backend

	// preCommits run under notifyMu after validation but before the
	// backend commit; an error aborts the write. See PreCommit.
	preCommits []func(Update) error
}

// NewStore builds an empty administration point.
func NewStore(name string) *Store {
	return &Store{name: name, entries: make(map[string]*entry)}
}

// Name identifies the store.
func (s *Store) Name() string { return s.name }

// Watch registers a watcher invoked synchronously after every change.
func (s *Store) Watch(w Watcher) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watchers = append(s.watchers, w)
}

// WatchInstall runs install while change notification is quiesced and then
// registers the watcher, atomically: no Put or Delete can commit between
// install's snapshot of the store (Follow's BuildRoot + SetRoot, an
// analyzer's Install of Live) and the registration. A delta-driven
// consumer attached to a live store needs this — with plain Watch after a
// snapshot, an update committing in between would never reach the
// watcher, and a delta pipeline (unlike a full-rebuild watcher) would
// never heal the gap. install must not write to the store.
func (s *Store) WatchInstall(install func(*Store) error, w Watcher) error {
	s.notifyMu.Lock()
	defer s.notifyMu.Unlock()
	if err := install(s); err != nil {
		return err
	}
	s.mu.Lock()
	s.watchers = append(s.watchers, w)
	s.mu.Unlock()
	return nil
}

// PreCommit registers a hook consulted before every write commits. Hooks
// run under the notification lock — serialised with all other writers and
// before the change becomes durable or visible — so a hook sees the store
// exactly as it is the instant before the write, with no later write
// racing past it. A hook returning an error aborts the write entirely;
// the store is unchanged and no watcher fires. This is how the static
// policy lint gate vetoes admin-plane writes invariantly. Hooks may read
// from the store but must not write to it (same self-deadlock rule as
// watchers).
func (s *Store) PreCommit(hook func(Update) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.preCommits = append(s.preCommits, hook)
}

// Put validates and stores a policy, returning its new version number. The
// policy's Version field is rewritten to the store-assigned version so
// retrieved policies self-describe. Put is the one-element PutAll.
func (s *Store) Put(e policy.Evaluable) (int, error) {
	us, err := s.put([]policy.Evaluable{e})
	if err != nil {
		return 0, err
	}
	return us[0].Version, nil
}

// PutAll stores several policies as one write. Every element is validated
// and the IDs must be distinct; then, serialised with every other writer,
// each element is assigned its next version and passed to the pre-commit
// hooks, all of them reach the backend in one Commit (for a store.Log, one
// record group behind one fsync), and only then do readers see them and
// watchers observe them, in slice order. An invalid element, a veto or a
// failed commit aborts the whole write: nothing is durable, visible or
// notified. Each hook judges its element against the store as it stood
// before the write, not against the write's earlier elements.
func (s *Store) PutAll(es []policy.Evaluable) error {
	if len(es) == 0 {
		return nil
	}
	_, err := s.put(es)
	return err
}

func (s *Store) put(es []policy.Evaluable) ([]Update, error) {
	us := make([]Update, len(es))
	seen := make(map[string]struct{}, len(es))
	for i, e := range es {
		if e == nil {
			return nil, fmt.Errorf("pap %s: nil policy", s.name)
		}
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("pap %s: %w", s.name, err)
		}
		id := e.EntityID()
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("pap %s: policy %q appears twice in one write", s.name, id)
		}
		seen[id] = struct{}{}
		us[i] = Update{ID: id, Policy: e}
	}
	s.notifyMu.Lock()
	defer s.notifyMu.Unlock()

	// Writers are serialised by notifyMu, so versions assigned under a
	// read lock cannot be invalidated by a concurrent writer.
	s.mu.RLock()
	for i := range us {
		us[i].Version = 1
		if ent, ok := s.entries[us[i].ID]; ok {
			us[i].Version = len(ent.versions) + 1
		}
	}
	s.mu.RUnlock()
	for _, u := range us {
		setVersion(u.Policy, u.Version)
	}
	if err := s.commitLocked(us); err != nil {
		return nil, err
	}
	return us, nil
}

// commitLocked takes one write through the pipeline every change follows:
// the pre-commit hooks on each update, one backend Commit for all of them,
// then publication to readers and watchers in order. Callers hold
// notifyMu, so only readers run while the backend works.
func (s *Store) commitLocked(us []Update) error {
	s.mu.RLock()
	hooks, backend := s.preCommits, s.backend
	s.mu.RUnlock()

	// Pre-commit hooks veto before durability: an aborted write leaves no
	// trace in the backend either.
	for _, u := range us {
		for _, hook := range hooks {
			if err := hook(u); err != nil {
				return fmt.Errorf("pap %s: pre-commit %s: %w", s.name, u.ID, err)
			}
		}
	}

	// Durability before visibility: the write reaches the backend before
	// the in-memory state or any watcher can observe it, so an
	// acknowledged write survives a crash and an aborted one was never
	// served.
	if backend != nil {
		if err := backend.Commit(us...); err != nil {
			what := us[0].ID
			if len(us) > 1 {
				what = fmt.Sprintf("%d updates from %s", len(us), what)
			}
			return fmt.Errorf("pap %s: commit %s: %w", s.name, what, err)
		}
	}

	s.mu.Lock()
	for _, u := range us {
		ent, ok := s.entries[u.ID]
		if !ok {
			ent = &entry{}
			s.entries[u.ID] = ent
		}
		ent.deleted = u.Deleted
		if !u.Deleted {
			ent.versions = append(ent.versions, u.Policy)
		}
	}
	watchers := s.watchers
	s.mu.Unlock()

	for _, u := range us {
		for _, w := range watchers {
			w(u)
		}
	}
	return nil
}

func setVersion(e policy.Evaluable, v int) {
	switch x := e.(type) {
	case *policy.Policy:
		x.Version = strconv.Itoa(v)
	case *policy.PolicySet:
		x.Version = strconv.Itoa(v)
	}
}

// Get returns the latest version of the policy.
func (s *Store) Get(id string) (policy.Evaluable, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ent, ok := s.entries[id]
	if !ok || ent.deleted || len(ent.versions) == 0 {
		return nil, fmt.Errorf("pap %s: %q: %w", s.name, id, ErrNotFound)
	}
	return ent.versions[len(ent.versions)-1], nil
}

// GetVersion returns a specific historical version (1-based).
func (s *Store) GetVersion(id string, version int) (policy.Evaluable, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ent, ok := s.entries[id]
	if !ok || version < 1 || version > len(ent.versions) {
		return nil, fmt.Errorf("pap %s: %q version %d: %w", s.name, id, version, ErrNotFound)
	}
	e := ent.versions[version-1]
	if e == nil {
		// Pre-snapshot history is compacted away by crash recovery
		// (Store.Hydrate): the slot exists to keep numbering, the
		// policy itself is gone.
		return nil, fmt.Errorf("pap %s: %q version %d: history compacted: %w", s.name, id, version, ErrNotFound)
	}
	return e, nil
}

// Delete removes the policy (history is retained for audit).
func (s *Store) Delete(id string) error {
	s.notifyMu.Lock()
	defer s.notifyMu.Unlock()
	s.mu.RLock()
	ent, ok := s.entries[id]
	live := ok && !ent.deleted
	s.mu.RUnlock()
	if !live {
		return fmt.Errorf("pap %s: %q: %w", s.name, id, ErrNotFound)
	}
	return s.commitLocked([]Update{{ID: id, Deleted: true}})
}

// List returns the IDs of live policies, sorted.
func (s *Store) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.entries))
	for id, ent := range s.entries {
		if !ent.deleted && len(ent.versions) > 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// History returns how many versions a policy has accumulated (including
// versions of deleted policies).
func (s *Store) History(id string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ent, ok := s.entries[id]
	if !ok {
		return 0
	}
	return len(ent.versions)
}

// Live returns the latest version of every live policy, sorted by ID. The
// live set is snapshotted under one read lock, so a concurrent Put or
// Delete can never mix pre- and post-update state into it.
func (s *Store) Live() []policy.Evaluable {
	s.mu.RLock()
	live := make([]policy.Evaluable, 0, len(s.entries))
	for _, ent := range s.entries {
		if !ent.deleted && len(ent.versions) > 0 {
			live = append(live, ent.versions[len(ent.versions)-1])
		}
	}
	s.mu.RUnlock()
	sort.Slice(live, func(i, j int) bool { return live[i].EntityID() < live[j].EntityID() })
	return live
}

// Root is the shape of the policy set a store's live policies are
// assembled under: its ID, combining algorithm, and the root-level target
// and obligations (both optional) every assembled root keeps.
type Root struct {
	ID          string
	Combining   policy.Algorithm
	Target      policy.Target
	Obligations []policy.Obligation
}

// BuildRoot assembles the live policies (Live, so in ID order) under root
// into a policy set ready to install in a PDP.
func (s *Store) BuildRoot(root Root) (*policy.PolicySet, error) {
	set := policy.NewPolicySet(root.ID).Combining(root.Combining).Add(s.Live()...).Build()
	set.Target = root.Target
	set.Obligations = root.Obligations
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("pap %s: assembled root: %w", s.name, err)
	}
	return set, nil
}

// RootInstaller is the decision-point surface Follow drives: incremental
// deltas with a full reinstall as fallback. Both *pdp.Engine and
// *cluster.Router satisfy it.
type RootInstaller interface {
	ApplyUpdate(u pdp.Update) error
	SetRoot(root policy.Evaluable) error
}

// Follow makes point serve the store's live policies under root and keeps
// it current: the assembled root installs and the refresh watcher
// registers atomically (WatchInstall), so no write is missed. Each later
// Put or Delete reaches the point as a delta (ApplyUpdate); a point that
// cannot patch incrementally (pdp.ErrNotIncremental, e.g. it holds a bare
// policy) gets the whole root reassembled and reinstalled. Every failed
// refresh — the point may then be serving stale policy — goes to onErr,
// which may be nil, as "pap <store>: refresh <id>: ...". Follow returns
// the initial install's error.
func Follow(point RootInstaller, s *Store, root Root, onErr func(error)) error {
	install := func(s *Store) error {
		set, err := s.BuildRoot(root)
		if err != nil {
			return err
		}
		return point.SetRoot(set)
	}
	return s.WatchInstall(install, func(u Update) {
		err := point.ApplyUpdate(pdp.Update{ID: u.ID, Child: u.Policy})
		if errors.Is(err, pdp.ErrNotIncremental) {
			err = install(s)
		}
		if err != nil && onErr != nil {
			onErr(fmt.Errorf("pap %s: refresh %s: %w", s.name, u.ID, err))
		}
	})
}

// Administrative action and resource-type names used by GuardedStore when
// composing administrative access requests. Administrative policies target
// these, so the authorisation system protects itself with its own language.
const (
	ActionPolicyRead   = "policy:read"
	ActionPolicyWrite  = "policy:write"
	ActionPolicyDelete = "policy:delete"
	ResourceTypePolicy = "policy"
)

// AdminRequest builds the access request describing an administrative
// operation on the store, evaluated against administrative policies.
func AdminRequest(admin, storeName, policyID, action string) *policy.Request {
	return policy.NewAccessRequest(admin, "pap:"+storeName+"/"+policyID, action).
		Add(policy.CategoryResource, policy.AttrResourceType, policy.String(ResourceTypePolicy)).
		Add(policy.CategoryResource, "policy-id", policy.String(policyID))
}

// GuardedStore protects a Store's administrative interface with an
// enforcement point.
type GuardedStore struct {
	store *Store
	guard *pep.Enforcer
}

// NewGuardedStore wraps the store behind the enforcer.
func NewGuardedStore(store *Store, guard *pep.Enforcer) *GuardedStore {
	return &GuardedStore{store: store, guard: guard}
}

// Put stores a policy if the administrator is authorised to write it.
func (g *GuardedStore) Put(ctx context.Context, admin string, e policy.Evaluable) (int, error) {
	if e == nil {
		return 0, fmt.Errorf("pap %s: nil policy", g.store.Name())
	}
	req := AdminRequest(admin, g.store.Name(), e.EntityID(), ActionPolicyWrite)
	if out := g.guard.Enforce(ctx, req); !out.Allowed {
		return 0, fmt.Errorf("pap %s: %s may not write %s: %v: %w",
			g.store.Name(), admin, e.EntityID(), out.Err, ErrForbidden)
	}
	return g.store.Put(e)
}

// Get retrieves a policy if the administrator is authorised to read it.
func (g *GuardedStore) Get(ctx context.Context, admin, id string) (policy.Evaluable, error) {
	req := AdminRequest(admin, g.store.Name(), id, ActionPolicyRead)
	if out := g.guard.Enforce(ctx, req); !out.Allowed {
		return nil, fmt.Errorf("pap %s: %s may not read %s: %v: %w",
			g.store.Name(), admin, id, out.Err, ErrForbidden)
	}
	return g.store.Get(id)
}

// Delete removes a policy if the administrator is authorised to delete it.
func (g *GuardedStore) Delete(ctx context.Context, admin, id string) error {
	req := AdminRequest(admin, g.store.Name(), id, ActionPolicyDelete)
	if out := g.guard.Enforce(ctx, req); !out.Allowed {
		return fmt.Errorf("pap %s: %s may not delete %s: %v: %w",
			g.store.Name(), admin, id, out.Err, ErrForbidden)
	}
	return g.store.Delete(id)
}
