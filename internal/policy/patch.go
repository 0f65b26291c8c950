package policy

import "sort"

// PatchChild returns a copy of the set with the child carrying the given
// ID replaced (child non-nil, ID present), inserted in ID order (child
// non-nil, ID absent — the deterministic child ordering pap.Store.BuildRoot
// establishes), or removed (child nil). It is the single structural delta
// rule shared by the PDP engine and the cluster router, so their patched
// roots can never diverge.
//
// The receiver is never mutated: its children slice is cloned, so readers
// holding the old set keep a consistent snapshot. Returns the new set, the
// position the change landed at, the position delta (+1 insert, -1 delete,
// 0 replace) and the displaced child (nil on insert). Removing an absent
// ID is a no-op reported as out == nil.
func (s *PolicySet) PatchChild(id string, child Evaluable) (out *PolicySet, pos, delta int, old Evaluable) {
	pos = -1
	for i, ch := range s.Children {
		if ch.EntityID() == id {
			pos = i
			break
		}
	}
	if pos < 0 && child == nil {
		return nil, -1, 0, nil
	}

	var children []Evaluable
	switch {
	case child == nil: // delete
		old = s.Children[pos]
		delta = -1
		children = make([]Evaluable, 0, len(s.Children)-1)
		children = append(children, s.Children[:pos]...)
		children = append(children, s.Children[pos+1:]...)
	case pos >= 0: // replace
		old = s.Children[pos]
		delta = 0
		children = make([]Evaluable, len(s.Children))
		copy(children, s.Children)
		children[pos] = child
	default: // insert, keeping ID ordering
		delta = +1
		pos = sort.Search(len(s.Children), func(i int) bool {
			return s.Children[i].EntityID() > id
		})
		children = make([]Evaluable, 0, len(s.Children)+1)
		children = append(children, s.Children[:pos]...)
		children = append(children, child)
		children = append(children, s.Children[pos:]...)
	}
	out = &PolicySet{
		ID:          s.ID,
		Version:     s.Version,
		Description: s.Description,
		Issuer:      s.Issuer,
		Target:      s.Target,
		Combining:   s.Combining,
		Children:    children,
		Obligations: s.Obligations,
	}
	return out, pos, delta, old
}

// ChildrenSortedByID reports whether the set's children are in ascending
// EntityID order — the ordering PatchChild's insert position assumes.
// Delta pipelines check it to fall back to a full rebuild when a caller
// installed an unsorted root, where independent insert searches over
// different child subsets could disagree.
func (s *PolicySet) ChildrenSortedByID() bool {
	for i := 1; i < len(s.Children); i++ {
		if s.Children[i-1].EntityID() > s.Children[i].EntityID() {
			return false
		}
	}
	return true
}
