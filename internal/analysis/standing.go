package analysis

import "repro/internal/policy"

// fkey is a standing finding's identity, exactly Finding.Key, and holds no
// pointers so the collector never scans the standing set: the kind and the
// interned subject, other and attribute. Refs are interned by their
// rendered string, so two refs that render alike are one ref (and
// re-materialise with the spelling interned first).
//
// The tallies count refs per owner, so they hold to that identity only
// while a rendered ref names one claim shape in one owner: a verbatim-
// duplicate rule counts once, but ids containing ':' that make refs of two
// owners render alike (a set "a" holding policy "b:c" and a set "a:b"
// holding "c") count once per owner in Stats and Summary, where Report
// lists the finding once. Within that contract two emissions with one key
// are the same finding, except a dead attribute referenced from both a
// rule's target and its condition: the first emitted — the target's —
// stands.
type fkey struct {
	kind           uint8
	subject, other uint32 // Engine.refs ids; 0 is the zero Ref
	attr           uint32 // Engine.attrs id; 0 is ""
}

// fval is the rest of a standing finding plus the index of its key in
// each of its two reverse lists (see listOwners).
type fval struct {
	sev, alg     uint8
	actual, cond bool
	pos          [2]uint32
}

// interner assigns dense, reference-counted ids to strings, 0 to "", and
// keeps the value each was added with. An id is freed for reuse when its
// last use is released, so the table follows the live set.
type interner[T any] struct {
	ids     map[string]uint32
	keys    []string
	vals    []T
	uses    []int32
	free    []uint32
	deletes int
}

func newInterner[T any]() interner[T] {
	return interner[T]{ids: make(map[string]uint32), keys: []string{""}, vals: make([]T, 1), uses: []int32{0}}
}

// intern returns the id of key, adding it with value v if absent; it
// takes no use. key is copied only when added.
func (t *interner[T]) intern(key []byte, v T) uint32 {
	if id, ok := t.ids[string(key)]; ok || len(key) == 0 {
		return id
	}
	s, id := string(key), uint32(len(t.keys))
	if n := len(t.free); n > 0 {
		id, t.free = t.free[n-1], t.free[:n-1]
		t.keys[id], t.vals[id] = s, v
	} else {
		t.keys, t.vals, t.uses = append(t.keys, s), append(t.vals, v), append(t.uses, 0)
	}
	t.ids[s] = id
	return id
}

func (t *interner[T]) hold(id uint32) {
	if id != 0 {
		t.uses[id]++
	}
}

func (t *interner[T]) release(id uint32) {
	if id == 0 {
		return
	}
	if t.uses[id]--; t.uses[id] > 0 {
		return
	}
	delete(t.ids, t.keys[id])
	var zero T
	t.keys[id], t.vals[id] = "", zero
	t.free = append(t.free, id)
	if t.deletes++; t.deletes > len(t.ids) {
		t.ids, t.deletes = rebuilt(t.ids), 0
	}
}

// rebuilt copies m into a fresh map. A Go map never gives back the space
// of deleted entries and grows under delete/insert churn, so the engine
// rebuilds a map once its deletes outnumber its live entries.
func rebuilt[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (e *Engine) refID(r Ref) uint32 {
	e.buf = r.appendTo(e.buf[:0])
	return e.refs.intern(e.buf, r)
}

// addFindingLocked stands f unless a finding with its key already stands:
// the first emitted for a key wins.
func (e *Engine) addFindingLocked(f Finding) {
	k := fkey{kind: uint8(f.Kind), subject: e.refID(f.Subject), other: e.refID(f.Other),
		attr: e.attrs.intern([]byte(f.Attribute), struct{}{})}
	if _, dup := e.findings[k]; dup {
		return
	}
	e.refs.hold(k.subject)
	e.refs.hold(k.other)
	e.attrs.hold(k.attr)
	v := fval{sev: uint8(f.Severity), alg: uint8(f.alg), actual: f.Actual, cond: f.cond}
	for s, owner := range e.listOwners(k) {
		if owner == "" {
			continue
		}
		// Lists grow by a quarter, not append's doubling, to stay near
		// their length.
		st := e.owners[owner]
		if n := len(st.findings); n == cap(st.findings) {
			st.findings = append(make([]fkey, 0, n+n/4+8), st.findings...)
		}
		v.pos[s] = uint32(len(st.findings))
		st.findings = append(st.findings, k)
	}
	e.findings[k] = v
	e.byKind[f.Kind]++
	e.bySev[f.Severity]++
}

// listOwners names the owners whose reverse lists hold k: the owners of
// the interned spellings of its subject and other, "" for none, and an
// intra-owner finding only once. A live ref's spelling names a live
// owner, since removing that owner drops every finding holding the ref.
func (e *Engine) listOwners(k fkey) [2]string {
	subject, other := e.refs.vals[k.subject].Owner, e.refs.vals[k.other].Owner
	if other == subject {
		other = ""
	}
	return [2]string{subject, other}
}

// removeOwnerLocked removes owner id, its tallies, its index entries and
// every finding in its reverse list, unlinking each from its other owner's
// list.
func (e *Engine) removeOwnerLocked(id string) {
	st, ok := e.owners[id]
	if !ok {
		return
	}
	e.tallyLocked(id, st, -1)
	for _, k := range st.findings {
		v := e.findings[k]
		for s, owner := range e.listOwners(k) {
			if owner != "" && owner != id {
				e.unlinkLocked(owner, v.pos[s])
			}
		}
		delete(e.findings, k)
		e.deletes++
		if e.byKind[Kind(k.kind)]--; e.byKind[Kind(k.kind)] == 0 {
			delete(e.byKind, Kind(k.kind))
		}
		if e.bySev[Severity(v.sev)]--; e.bySev[Severity(v.sev)] == 0 {
			delete(e.bySev, Severity(v.sev))
		}
		e.refs.release(k.subject)
		e.refs.release(k.other)
		e.attrs.release(k.attr)
	}
	if e.deletes > len(e.findings) {
		e.findings, e.deletes = rebuilt(e.findings), 0
	}
	e.claims -= len(st.claims)
	for _, k := range st.keys {
		if set, ok := e.byKey[k]; ok {
			delete(set, id)
			if len(set) == 0 {
				delete(e.byKey, k)
			}
		}
	}
	delete(e.wildcard, id)
	delete(e.owners, id)
}

// unlinkLocked removes entry i of owner's reverse list by moving the last
// entry into its place, and shrinks a list left mostly empty.
func (e *Engine) unlinkLocked(owner string, i uint32) {
	st := e.owners[owner]
	last := len(st.findings) - 1
	if m := st.findings[last]; int(i) != last {
		st.findings[i] = m
		v := e.findings[m]
		if e.listOwners(m)[0] == owner {
			v.pos[0] = i
		} else {
			v.pos[1] = i
		}
		e.findings[m] = v
	}
	st.findings = st.findings[:last]
	if c := cap(st.findings); c > 64 && last < c/2 {
		st.findings = append(make([]fkey, 0, last+last/4), st.findings...)
	}
}

// materialize rebuilds the standing finding stored under k, without Detail.
func (e *Engine) materialize(k fkey, v fval) Finding {
	return Finding{
		Kind: Kind(k.kind), Severity: Severity(v.sev),
		Subject: e.refs.vals[k.subject], Other: e.refs.vals[k.other],
		Actual: v.actual, Attribute: e.attrs.keys[k.attr],
		alg: policy.Algorithm(v.alg), cond: v.cond,
	}
}
