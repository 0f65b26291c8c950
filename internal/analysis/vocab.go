package analysis

import (
	"repro/internal/pip"
	"repro/internal/policy"
)

// Vocabulary is the set of attributes some information source can supply:
// the conventional request-bag attributes plus everything the registered
// PIP providers declare through pip.Introspector. Dead-attribute analysis
// reports any designator outside it.
type Vocabulary struct {
	known map[string]struct{}
	open  bool
}

func vocabKey(cat policy.Category, name string) string {
	return cat.String() + "/" + name
}

// NewVocabulary returns an empty vocabulary (nothing suppliable).
func NewVocabulary() *Vocabulary {
	return &Vocabulary{known: make(map[string]struct{})}
}

// BaseVocabulary returns the attributes enforcement points conventionally
// place in request bags — the well-known names of policy/attributes.go —
// plus the environment clock attributes every evaluation context carries.
func BaseVocabulary() *Vocabulary {
	v := NewVocabulary()
	for _, ref := range []struct {
		cat  policy.Category
		name string
	}{
		{policy.CategorySubject, policy.AttrSubjectID},
		{policy.CategorySubject, policy.AttrSubjectRole},
		{policy.CategorySubject, policy.AttrSubjectDomain},
		{policy.CategorySubject, policy.AttrSubjectGroup},
		{policy.CategorySubject, policy.AttrClearance},
		{policy.CategoryResource, policy.AttrResourceID},
		{policy.CategoryResource, policy.AttrResourceOwner},
		{policy.CategoryResource, policy.AttrResourceDomain},
		{policy.CategoryResource, policy.AttrResourceType},
		{policy.CategoryResource, policy.AttrClassification},
		{policy.CategoryResource, policy.AttrConflictOfIntSet},
		{policy.CategoryAction, policy.AttrActionID},
		{policy.CategoryEnvironment, policy.AttrCurrentTime},
		{policy.CategoryEnvironment, policy.AttrCurrentDate},
	} {
		v.Add(ref.cat, ref.name)
	}
	return v
}

// Add marks one attribute suppliable.
func (v *Vocabulary) Add(cat policy.Category, name string) {
	v.known[vocabKey(cat, name)] = struct{}{}
}

// AddSource merges the attributes a provider declares. A provider that is
// open-ended (or does not implement pip.Introspector) marks the whole
// vocabulary open: dead-attribute analysis can no longer prove anything
// dead and stops reporting.
func (v *Vocabulary) AddSource(p pip.Provider) {
	refs, complete := pip.Supplied(p)
	for _, r := range refs {
		v.Add(r.Category, r.Name)
	}
	if !complete {
		v.open = true
	}
}

// MarkOpen declares the vocabulary open-ended, disabling dead-attribute
// findings.
func (v *Vocabulary) MarkOpen() { v.open = true }

// Knows reports whether the attribute can be supplied. An open vocabulary
// knows everything.
func (v *Vocabulary) Knows(cat policy.Category, name string) bool {
	if v == nil || v.open {
		return true
	}
	_, ok := v.known[vocabKey(cat, name)]
	return ok
}

// deadAttributes walks every target match and condition designator of the
// evaluable and passes to emit the references outside the vocabulary. A
// repeated reference repeats its finding; the engine and Merge keep the
// first per (policy, rule, attribute).
func deadAttributes(owner string, ev policy.Evaluable, vocab *Vocabulary, emit func(Finding)) {
	if vocab == nil || vocab.open {
		return
	}
	report := func(ref Ref, cat policy.Category, name string, cond bool) {
		if vocab.Knows(cat, name) {
			return
		}
		emit(Finding{
			Kind:      KindDeadAttribute,
			Severity:  SeverityWarning,
			Subject:   ref,
			Attribute: vocabKey(cat, name),
			cond:      cond,
		})
	}
	policy.Walk(ev, func(e policy.Evaluable) bool {
		switch v := e.(type) {
		case *policy.PolicySet:
			ref := Ref{Owner: owner, PolicyID: v.ID}
			v.Target.VisitAttributes(func(cat policy.Category, name string) {
				report(ref, cat, name, false)
			})
		case *policy.Policy:
			pref := Ref{Owner: owner, PolicyID: v.ID}
			v.Target.VisitAttributes(func(cat policy.Category, name string) {
				report(pref, cat, name, false)
			})
			for _, r := range v.Rules {
				rref := Ref{Owner: owner, PolicyID: v.ID, RuleID: r.ID}
				r.Target.VisitAttributes(func(cat policy.Category, name string) {
					report(rref, cat, name, false)
				})
				policy.WalkDesignators(r.Condition, func(d *policy.Designator) {
					report(rref, d.Category, d.Name, true)
				})
			}
		}
		return true
	})
}
