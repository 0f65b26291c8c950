// Package models implements the three classical access-control models the
// paper's Section 2.2 surveys alongside RBAC: discretionary access control
// (identity-based ACLs with owner-managed grants), mandatory access control
// (Bell–LaPadula sensitivity labels), and the Brewer–Nash Chinese Wall
// model (history-based conflict-of-interest classes, Section 3.1).
//
// Each model exposes a direct decision function and, where meaningful, a
// bridge into the attribute-based policy engine.
package models

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/pip"
	"repro/internal/policy"
)

// Errors surfaced by the models, matched with errors.Is.
var (
	// ErrNotOwner reports a DAC grant attempted by a non-owner without
	// grant rights.
	ErrNotOwner = errors.New("models: subject may not administer this object")
	// ErrUnknownObject reports an operation on an unregistered object.
	ErrUnknownObject = errors.New("models: unknown object")
	// ErrWallViolation reports an access the Chinese Wall forbids.
	ErrWallViolation = errors.New("models: chinese wall violation")
)

// --- Discretionary access control ---

// DACEntry is one ACL entry: a subject's allowed actions, optionally with
// the right to grant those actions onward.
type DACEntry struct {
	// Actions the subject may perform.
	Actions map[string]struct{}
	// GrantOption allows the subject to grant its actions to others,
	// modelling discretionary delegation.
	GrantOption bool
}

// DAC is an owner-administered access-control-list model.
type DAC struct {
	mu     sync.RWMutex
	owners map[string]string              // object -> owner
	acls   map[string]map[string]DACEntry // object -> subject -> entry
}

// NewDAC builds an empty DAC model.
func NewDAC() *DAC {
	return &DAC{
		owners: make(map[string]string),
		acls:   make(map[string]map[string]DACEntry),
	}
}

// Register declares an object and its owner; the owner holds every right.
func (d *DAC) Register(object, owner string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.owners[object] = owner
	if d.acls[object] == nil {
		d.acls[object] = make(map[string]DACEntry)
	}
}

// Owner returns the object's owner.
func (d *DAC) Owner(object string) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	o, ok := d.owners[object]
	return o, ok
}

// Grant lets grantor give grantee an action on the object. The grantor must
// be the owner or hold the action with the grant option.
func (d *DAC) Grant(grantor, grantee, object, action string, withGrant bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	owner, ok := d.owners[object]
	if !ok {
		return fmt.Errorf("models: %q: %w", object, ErrUnknownObject)
	}
	if grantor != owner {
		entry, ok := d.acls[object][grantor]
		if !ok || !entry.GrantOption {
			return fmt.Errorf("models: %s granting on %s: %w", grantor, object, ErrNotOwner)
		}
		if _, holds := entry.Actions[action]; !holds {
			return fmt.Errorf("models: %s does not hold %s on %s: %w", grantor, action, object, ErrNotOwner)
		}
	}
	entry, ok := d.acls[object][grantee]
	if !ok {
		entry = DACEntry{Actions: make(map[string]struct{})}
	}
	entry.Actions[action] = struct{}{}
	entry.GrantOption = entry.GrantOption || withGrant
	d.acls[object][grantee] = entry
	return nil
}

// Revoke removes a subject's action on the object; only the owner revokes.
func (d *DAC) Revoke(revoker, subject, object, action string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	owner, ok := d.owners[object]
	if !ok {
		return fmt.Errorf("models: %q: %w", object, ErrUnknownObject)
	}
	if revoker != owner {
		return fmt.Errorf("models: %s revoking on %s: %w", revoker, object, ErrNotOwner)
	}
	if entry, ok := d.acls[object][subject]; ok {
		delete(entry.Actions, action)
		if len(entry.Actions) == 0 {
			delete(d.acls[object], subject)
		} else {
			d.acls[object][subject] = entry
		}
	}
	return nil
}

// Check reports whether the subject may perform the action. Owners hold
// every right on their objects.
func (d *DAC) Check(subject, object, action string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.owners[object] == subject {
		return true
	}
	entry, ok := d.acls[object][subject]
	if !ok {
		return false
	}
	_, holds := entry.Actions[action]
	return holds
}

// --- Mandatory access control (Bell–LaPadula) ---

// Level is a sensitivity level; higher values are more sensitive.
type Level int

// Conventional levels; any ordered ints work.
const (
	Unclassified Level = iota + 1
	Confidential
	Secret
	TopSecret
)

// String names the conventional levels.
func (l Level) String() string {
	switch l {
	case Unclassified:
		return "unclassified"
	case Confidential:
		return "confidential"
	case Secret:
		return "secret"
	case TopSecret:
		return "top-secret"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// MAC is a Bell–LaPadula lattice model over levels and need-to-know
// compartments.
type MAC struct {
	mu         sync.RWMutex
	clearances map[string]Level               // subject -> clearance
	labels     map[string]Level               // object -> classification
	compSubj   map[string]map[string]struct{} // subject -> compartments
	compObj    map[string]map[string]struct{} // object -> compartments
}

// NewMAC builds an empty MAC model.
func NewMAC() *MAC {
	return &MAC{
		clearances: make(map[string]Level),
		labels:     make(map[string]Level),
		compSubj:   make(map[string]map[string]struct{}),
		compObj:    make(map[string]map[string]struct{}),
	}
}

// Clear assigns a subject's clearance and compartments.
func (m *MAC) Clear(subject string, level Level, compartments ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clearances[subject] = level
	set := make(map[string]struct{}, len(compartments))
	for _, c := range compartments {
		set[c] = struct{}{}
	}
	m.compSubj[subject] = set
}

// Label classifies an object.
func (m *MAC) Label(object string, level Level, compartments ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.labels[object] = level
	set := make(map[string]struct{}, len(compartments))
	for _, c := range compartments {
		set[c] = struct{}{}
	}
	m.compObj[object] = set
}

// dominates reports whether the subject's label dominates the object's:
// clearance >= classification and compartments are a superset.
func (m *MAC) dominates(subject, object string) bool {
	clr, ok := m.clearances[subject]
	if !ok {
		return false
	}
	lbl, ok := m.labels[object]
	if !ok {
		return false
	}
	if clr < lbl {
		return false
	}
	for c := range m.compObj[object] {
		if _, ok := m.compSubj[subject][c]; !ok {
			return false
		}
	}
	return true
}

// CanRead implements the simple security property: no read up.
func (m *MAC) CanRead(subject, object string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.dominates(subject, object)
}

// CanWrite implements the star property: no write down. A subject may write
// only to objects whose label dominates the subject's level (and the object
// must carry every compartment context is lost to).
func (m *MAC) CanWrite(subject, object string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	clr, ok := m.clearances[subject]
	if !ok {
		return false
	}
	lbl, ok := m.labels[object]
	if !ok {
		return false
	}
	if lbl < clr {
		return false
	}
	for c := range m.compSubj[subject] {
		if _, ok := m.compObj[object][c]; !ok {
			return false
		}
	}
	return true
}

// Resolver bridges MAC labels into the policy engine: it serves subject
// clearance and resource classification as integer attributes.
func (m *MAC) ResolveAttribute(_ context.Context, req *policy.Request, cat policy.Category, name string) (policy.Bag, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	switch {
	case cat == policy.CategorySubject && name == policy.AttrClearance && req != nil:
		if lvl, ok := m.clearances[req.SubjectID()]; ok {
			return policy.Singleton(policy.Integer(int64(lvl))), nil
		}
	case cat == policy.CategoryResource && name == policy.AttrClassification && req != nil:
		if lvl, ok := m.labels[req.ResourceID()]; ok {
			return policy.Singleton(policy.Integer(int64(lvl))), nil
		}
	}
	return nil, nil
}

var _ policy.Resolver = (*MAC)(nil)

// --- Chinese Wall (Brewer–Nash) ---

// ChineseWall tracks conflict-of-interest classes of datasets and the
// access history of each subject. A subject may access a dataset unless it
// has already accessed a different dataset in the same conflict class.
type ChineseWall struct {
	history *pip.HistoryProvider

	mu      sync.RWMutex
	classOf map[string]string // dataset -> conflict class
}

// NewChineseWall builds a wall over the given history provider; a nil
// provider gets a fresh one.
func NewChineseWall(history *pip.HistoryProvider) *ChineseWall {
	if history == nil {
		history = pip.NewHistoryProvider("chinese-wall-history")
	}
	return &ChineseWall{history: history, classOf: make(map[string]string)}
}

// History exposes the underlying provider so PDPs can serve the
// accessed-dataset attribute from it.
func (w *ChineseWall) History() *pip.HistoryProvider { return w.history }

// DeclareDataset places a dataset into a conflict-of-interest class.
func (w *ChineseWall) DeclareDataset(dataset, conflictClass string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.classOf[dataset] = conflictClass
}

// Check reports whether the subject may access the dataset under the wall
// rule. Datasets outside any declared class are unrestricted.
func (w *ChineseWall) Check(subject, dataset string) error {
	w.mu.RLock()
	class, classified := w.classOf[dataset]
	if !classified {
		w.mu.RUnlock()
		return nil
	}
	var conflicting []string
	for ds, c := range w.classOf {
		if c == class && ds != dataset {
			conflicting = append(conflicting, ds)
		}
	}
	w.mu.RUnlock()
	for _, ds := range conflicting {
		if w.history.Accessed(subject, ds) {
			return fmt.Errorf("models: %s already accessed %s in class %s, cannot access %s: %w",
				subject, ds, class, dataset, ErrWallViolation)
		}
	}
	return nil
}

// Access checks the wall and, when allowed, records the access in the
// history — the complete Brewer–Nash transition.
func (w *ChineseWall) Access(subject, dataset string) error {
	if err := w.Check(subject, dataset); err != nil {
		return err
	}
	w.history.Record(subject, dataset)
	return nil
}
