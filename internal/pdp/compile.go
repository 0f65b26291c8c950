package pdp

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/policy"
)

// This file implements the compiled decision program: the flattened,
// attribute-indexed form of the policy base built at snapshot publication
// (SetRoot / ApplyUpdate) and evaluated on the decision miss path.
//
// Compilation trades publish-time work for decision-time work. The root's
// direct children are flattened into per-child compiled policies — target
// matcher, rule array with the decision, decider chain ("root/policy/rule")
// and statically fulfilled obligations precomputed per rule — and indexed
// by three posting-list dimensions (resource-id, action-id, subject-role).
// A miss then assembles a candidate position list from the postings of the
// attributes the request carries and runs the root combining algorithm
// over those candidates only, with pooled scratch so the common path does
// not allocate.
//
// Everything here mirrors the interpreter in internal/policy exactly; the
// compiled program is an optimisation, never a semantic fork. Constructs
// the compiler does not cover fall back per entity, decided at compile
// time: a child with conditions, dynamic obligations, non-equality match
// functions or a nested policy-set shape keeps its interpretive Evaluate,
// wrapped so the root's decorate step is still applied. Roots that are not
// policy sets, carry obligations, or use non-equality targets do not
// compile at all (compileProgram returns nil) and the engine evaluates the
// root with the interpreter.

// progDimCount is the number of posting-list dimensions a program indexes.
const progDimCount = 3

// progDimSpecs are the attributes the compiler indexes children by: the
// well-known identifiers nearly every target pins first. Children pinned on
// other attributes are simply catch-alls in every dimension.
var progDimSpecs = [progDimCount]struct {
	cat  policy.Category
	name string
}{
	{policy.CategoryResource, policy.AttrResourceID},
	{policy.CategoryAction, policy.AttrActionID},
	{policy.CategorySubject, policy.AttrSubjectRole},
}

// compiledMatch is one equality test against a request attribute. It is
// semantically Match with FnEqual, minus the function-registry indirection
// and its per-call bag allocations.
type compiledMatch struct {
	cat   policy.Category
	name  string
	value policy.Value
}

// compiledAllOf is a conjunction of equality matches.
type compiledAllOf []compiledMatch

// compiledAnyOf is a disjunction of conjunctions.
type compiledAnyOf []compiledAllOf

// compiledTarget mirrors policy.Target: an AND of AnyOf groups.
type compiledTarget []compiledAnyOf

func (a compiledAllOf) eval(ec *policy.Context) (policy.MatchResult, error) {
	for _, m := range a {
		bag, err := ec.Attribute(m.cat, m.name)
		if err != nil {
			return policy.MatchIndeterminate, err
		}
		if !bag.Contains(m.value) {
			return policy.MatchNo, nil
		}
	}
	return policy.MatchYes, nil
}

func (a compiledAnyOf) eval(ec *policy.Context) (policy.MatchResult, error) {
	sawIndeterminate := false
	var firstErr error
	for _, all := range a {
		r, err := all.eval(ec)
		switch r {
		case policy.MatchYes:
			return policy.MatchYes, nil
		case policy.MatchIndeterminate:
			sawIndeterminate = true
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if sawIndeterminate {
		return policy.MatchIndeterminate, firstErr
	}
	return policy.MatchNo, nil
}

func (t compiledTarget) eval(ec *policy.Context) (policy.MatchResult, error) {
	for _, group := range t {
		r, err := group.eval(ec)
		if err != nil || r == policy.MatchIndeterminate {
			return policy.MatchIndeterminate, err
		}
		if r == policy.MatchNo {
			return policy.MatchNo, nil
		}
	}
	return policy.MatchYes, nil
}

// compileTarget lowers a target whose matches are all plain equality;
// anything else (custom predicate functions) reports false and the entity
// falls back to the interpreter.
func compileTarget(t policy.Target) (compiledTarget, bool) {
	if len(t) == 0 {
		return nil, true
	}
	out := make(compiledTarget, len(t))
	for gi, group := range t {
		cg := make(compiledAnyOf, len(group))
		for ai, all := range group {
			ca := make(compiledAllOf, len(all))
			for mi, m := range all {
				if m.Function != "" && m.Function != policy.FnEqual {
					return nil, false
				}
				ca[mi] = compiledMatch{cat: m.Category, name: m.Name, value: m.Value}
			}
			cg[ai] = ca
		}
		out[gi] = cg
	}
	return out, true
}

// compiledRule is a rule whose applicable decision is fully precomputed:
// when the target matches, the evaluation IS r.res — decision, complete
// decider chain and statically fulfilled obligations, no work left.
type compiledRule struct {
	// id is the bare rule ID, the By of a target-Indeterminate result.
	id     string
	target compiledTarget
	// res is the shared precomputed result. Its Obligations slice is
	// clipped, so combiner merges append into fresh backing instead of
	// scribbling over a result another request may hold.
	res policy.Result
}

func (r *compiledRule) eval(ec *policy.Context) policy.Result {
	match, err := r.target.eval(ec)
	if match == policy.MatchIndeterminate {
		return policy.Result{Decision: policy.DecisionIndeterminate, By: r.id, Err: err}
	}
	if match == policy.MatchNo {
		return policy.Result{Decision: policy.DecisionNotApplicable}
	}
	return r.res
}

// compiledPolicy is one root child lowered to a rule array with the
// combining algorithm's short-circuits baked in. Results it returns are
// fully decorated, root prefix included — the root combiner never
// post-processes them.
type compiledPolicy struct {
	id        string
	combining policy.Algorithm
	target    compiledTarget
	rules     []compiledRule
	// polObs holds the policy's statically fulfilled obligations by effect
	// (index Effect-1), appended to Permit/Deny results like decorate does.
	polObs [2][]policy.FulfilledObligation
	// defaultRes is the precomputed defaulting result for
	// deny-unless-permit / permit-unless-deny, decoration included.
	defaultRes policy.Result
}

func (cp *compiledPolicy) eval(ec *policy.Context) policy.Result {
	match, err := cp.target.eval(ec)
	if match == policy.MatchIndeterminate {
		return policy.Result{Decision: policy.DecisionIndeterminate, By: cp.id, Err: err}
	}
	if match == policy.MatchNo {
		return policy.Result{Decision: policy.DecisionNotApplicable}
	}
	switch cp.combining {
	case policy.DenyOverrides:
		return cp.decorate(cp.combineRules(ec, policy.DecisionDeny, policy.DecisionPermit))
	case policy.PermitOverrides:
		return cp.decorate(cp.combineRules(ec, policy.DecisionPermit, policy.DecisionDeny))
	case policy.FirstApplicable:
		for i := range cp.rules {
			if res := cp.rules[i].eval(ec); res.Decision != policy.DecisionNotApplicable {
				return cp.decorate(res)
			}
		}
		return policy.Result{Decision: policy.DecisionNotApplicable}
	case policy.DenyUnlessPermit:
		return cp.evalDefaulting(ec, policy.DecisionPermit)
	default: // PermitUnlessDeny — compilePolicy admits nothing else
		return cp.evalDefaulting(ec, policy.DecisionDeny)
	}
}

// combineRules is deny-overrides (override=Deny) or permit-overrides
// (override=Permit) over the rule array, mirroring the interpreter: the
// override effect returns immediately, results of the merged effect pool
// their obligations in evaluation order, and the first Indeterminate beats
// any merged result.
func (cp *compiledPolicy) combineRules(ec *policy.Context, override, merged policy.Decision) policy.Result {
	var (
		sawMerged, sawIndeterminate bool
		mergedRes, indetRes         policy.Result
	)
	for i := range cp.rules {
		res := cp.rules[i].eval(ec)
		switch res.Decision {
		case override:
			return res
		case merged:
			if !sawMerged {
				sawMerged = true
				mergedRes = res
			} else {
				mergedRes.Obligations = append(mergedRes.Obligations, res.Obligations...)
			}
		case policy.DecisionIndeterminate:
			if !sawIndeterminate {
				sawIndeterminate = true
				indetRes = res
			}
		}
	}
	if sawIndeterminate {
		return indetRes
	}
	if sawMerged {
		return mergedRes
	}
	return policy.Result{Decision: policy.DecisionNotApplicable}
}

// evalDefaulting is deny-unless-permit / permit-unless-deny: the first rule
// producing the override decision wins (decorated), anything else —
// including Indeterminate — is skipped, and the precomputed default result
// covers the rest.
func (cp *compiledPolicy) evalDefaulting(ec *policy.Context, override policy.Decision) policy.Result {
	for i := range cp.rules {
		if res := cp.rules[i].eval(ec); res.Decision == override {
			return cp.decorate(res)
		}
	}
	return cp.defaultRes
}

// decorate appends the policy's statically fulfilled obligations to a
// Permit/Deny result. The By chain is already complete (precomputed in
// each rule's result), so unlike the interpreter's decorate there is no
// prefixing left to do.
func (cp *compiledPolicy) decorate(res policy.Result) policy.Result {
	switch res.Decision {
	case policy.DecisionPermit:
		if obs := cp.polObs[policy.EffectPermit-1]; len(obs) > 0 {
			res.Obligations = append(res.Obligations, obs...)
		}
	case policy.DecisionDeny:
		if obs := cp.polObs[policy.EffectDeny-1]; len(obs) > 0 {
			res.Obligations = append(res.Obligations, obs...)
		}
	}
	return res
}

// progChild is one root child: compiled when pol is non-nil, otherwise an
// interpretive fallback evaluated through src with the root decoration
// applied manually.
type progChild struct {
	id  string
	pol *compiledPolicy
	src policy.Evaluable
}

// dimension is one posting-list index over the root's children. posting
// maps a pinned attribute value (canonical string form) to the ascending
// positions of children pinned to it; catchAll holds every child the
// dimension cannot prune. pinned mirrors posting per position — the keys
// child i is pinned to, nil when it is a catch-all here — so candidate
// lists assembled by another dimension can be filtered through this one
// without consulting the map.
//
// Pinning uses Target.PinnedFirstGroup, which is deliberately stricter
// than Target.ExactMatches: a child is pinned only when its
// target's FIRST group is purely equality matches on this dimension's
// attribute. For a request that carries the attribute without any pinned
// value, that first group evaluates MatchNo from the request bag alone —
// no resolver, no possible error — and short-circuits the whole target, so
// pruning the child is exactly equivalent to evaluating it (NotApplicable
// either way), Indeterminate outcomes included. ExactMatches-style pruning
// lacks that guarantee: a later group could still have gone Indeterminate.
type dimension struct {
	cat      policy.Category
	name     string
	posting  map[string][]int32
	catchAll []int32
	pinned   [][]string
	// active gates use of the dimension: when half or more of the children
	// are catch-alls here, probing it cannot prune enough to pay for
	// itself, so candidate assembly and filtering skip it.
	active bool
}

// program is the compiled decision program for one published root. It is
// immutable after construction, shared by every reader of its snapshot.
type program struct {
	rootID    string
	combining policy.Algorithm
	target    compiledTarget
	children  []progChild
	// compiled counts children with a non-nil compiledPolicy.
	compiled int
	dims     [progDimCount]dimension
	// universe lists every child position, the candidate set when no
	// dimension applies to a request.
	universe []int32
}

// valueKey renders a value for posting-list keying. Two Equal values
// always share a key; distinct values of different kinds may collide,
// which only ever widens a candidate set, never narrows it.
func valueKey(v policy.Value) string {
	if v.Kind() == policy.KindString {
		return v.Str()
	}
	return v.String()
}

// targetOf extracts the gating target of a root child.
func targetOf(e policy.Evaluable) policy.Target {
	switch v := e.(type) {
	case *policy.Policy:
		return v.Target
	case *policy.PolicySet:
		return v.Target
	default:
		return nil
	}
}

// compileProgram lowers a validated root into a program, or returns nil
// when the root itself is uncompilable — not a policy set, obligations at
// the root (their per-request fulfilment order cannot be precomputed
// per child), a target with custom predicates, or an unknown combining
// algorithm. Child-level constructs never fail the whole compile; they
// demote that child to interpretive fallback.
func compileProgram(root policy.Evaluable) *program {
	set, ok := root.(*policy.PolicySet)
	if !ok || set == nil {
		return nil
	}
	if len(set.Obligations) > 0 {
		return nil
	}
	switch set.Combining {
	case policy.DenyOverrides, policy.PermitOverrides, policy.FirstApplicable,
		policy.OnlyOneApplicable, policy.DenyUnlessPermit, policy.PermitUnlessDeny:
	default:
		return nil
	}
	target, ok := compileTarget(set.Target)
	if !ok {
		return nil
	}
	p := &program{
		rootID:    set.ID,
		combining: set.Combining,
		target:    target,
		children:  make([]progChild, len(set.Children)),
		universe:  make([]int32, len(set.Children)),
	}
	for i, ch := range set.Children {
		if ch == nil {
			return nil // Validate rejects this; stay safe under fuzzing
		}
		p.children[i] = compileChild(set.ID, ch)
		if p.children[i].pol != nil {
			p.compiled++
		}
		p.universe[i] = int32(i)
	}
	for di := range p.dims {
		p.dims[di] = buildDimension(di, set.Children)
	}
	return p
}

// compileChild lowers one root child, keeping the interpretive Evaluable
// alongside for fallback and for only-one-applicable diagnostics.
func compileChild(rootID string, ch policy.Evaluable) progChild {
	pc := progChild{id: ch.EntityID(), src: ch}
	if pol, ok := ch.(*policy.Policy); ok && pol != nil {
		pc.pol = compilePolicy(rootID, pol)
	}
	return pc
}

// compilePolicy lowers one policy, or returns nil when any construct needs
// the interpreter: a custom-predicate target, a rule condition (arbitrary
// expression), an obligation with non-literal assignments, or a combining
// algorithm outside the rule set.
func compilePolicy(rootID string, pol *policy.Policy) *compiledPolicy {
	switch pol.Combining {
	case policy.DenyOverrides, policy.PermitOverrides, policy.FirstApplicable,
		policy.DenyUnlessPermit, policy.PermitUnlessDeny:
	default:
		return nil
	}
	target, ok := compileTarget(pol.Target)
	if !ok {
		return nil
	}
	permitObs, ok := policy.StaticObligations(pol.Obligations, policy.EffectPermit)
	if !ok {
		return nil
	}
	denyObs, ok := policy.StaticObligations(pol.Obligations, policy.EffectDeny)
	if !ok {
		return nil
	}
	cp := &compiledPolicy{id: pol.ID, combining: pol.Combining, target: target}
	cp.polObs[policy.EffectPermit-1] = clipObs(permitObs)
	cp.polObs[policy.EffectDeny-1] = clipObs(denyObs)
	prefix := rootID + "/" + pol.ID
	cp.rules = make([]compiledRule, len(pol.Rules))
	for i, r := range pol.Rules {
		if r == nil || r.Condition != nil {
			return nil
		}
		if r.Effect != policy.EffectPermit && r.Effect != policy.EffectDeny {
			return nil
		}
		rt, ok := compileTarget(r.Target)
		if !ok {
			return nil
		}
		robs, ok := policy.StaticObligations(r.Obligations, r.Effect)
		if !ok {
			return nil
		}
		dec := policy.DecisionPermit
		if r.Effect == policy.EffectDeny {
			dec = policy.DecisionDeny
		}
		cp.rules[i] = compiledRule{
			id:     r.ID,
			target: rt,
			res: policy.Result{
				Decision:    dec,
				By:          prefix + "/" + r.ID,
				Obligations: clipObs(robs),
			},
		}
	}
	switch pol.Combining {
	case policy.DenyUnlessPermit:
		cp.defaultRes = policy.Result{
			Decision:    policy.DecisionDeny,
			By:          prefix,
			Obligations: cp.polObs[policy.EffectDeny-1],
		}
	case policy.PermitUnlessDeny:
		cp.defaultRes = policy.Result{
			Decision:    policy.DecisionPermit,
			By:          prefix,
			Obligations: cp.polObs[policy.EffectPermit-1],
		}
	}
	return cp
}

// buildDimension indexes the children along one dimension spec.
func buildDimension(di int, children []policy.Evaluable) dimension {
	spec := progDimSpecs[di]
	d := dimension{
		cat:     spec.cat,
		name:    spec.name,
		posting: make(map[string][]int32),
		pinned:  make([][]string, len(children)),
	}
	for i, ch := range children {
		keys := pinnedKeys(targetOf(ch), d.cat, d.name)
		if keys == nil {
			d.catchAll = append(d.catchAll, int32(i))
			continue
		}
		d.pinned[i] = keys
		for _, k := range keys {
			d.posting[k] = append(d.posting[k], int32(i))
		}
	}
	d.active = 2*len(d.catchAll) <= len(children)
	return d
}

// pinnedKeys returns the deduplicated posting keys a target's first group
// pins the attribute to, nil when it does not pin it.
func pinnedKeys(t policy.Target, cat policy.Category, name string) []string {
	vals, ok := t.PinnedFirstGroup(cat, name)
	if !ok || len(vals) == 0 {
		return nil
	}
	keys := make([]string, 0, len(vals))
	for _, v := range vals {
		k := valueKey(v)
		if !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	return keys
}

func clipObs(obs []policy.FulfilledObligation) []policy.FulfilledObligation {
	if len(obs) == 0 {
		return nil
	}
	return slices.Clip(obs)
}

// progScratch is the pooled per-evaluation scratch buffer candidate
// assembly reuses, keeping the compiled miss path allocation-free once
// warm.
type progScratch struct {
	cand []int32
}

var progScratchPool = sync.Pool{New: func() any { return new(progScratch) }}

// evaluate runs the program against the request, returning the result,
// the candidate-set size considered (for selectivity stats) and whether
// any child it evaluated was an interpretive fallback.
func (p *program) evaluate(ec *policy.Context, req *policy.Request) (res policy.Result, candidates int, fallback bool) {
	match, err := p.target.eval(ec)
	if match == policy.MatchIndeterminate {
		return policy.Result{Decision: policy.DecisionIndeterminate, By: p.rootID, Err: err}, 0, false
	}
	if match == policy.MatchNo {
		return policy.Result{Decision: policy.DecisionNotApplicable}, 0, false
	}
	sc := progScratchPool.Get().(*progScratch)
	cand, usedBuf := p.candidates(req, sc.cand[:0])
	res = p.combineChildren(ec, cand, &fallback)
	n := len(cand)
	if usedBuf {
		// Never stash the shared universe slice: the pool only recycles
		// buffers this evaluation assembled itself.
		sc.cand = cand
	}
	progScratchPool.Put(sc)
	return res, n, fallback
}

// candidates assembles the ascending child positions that could apply to
// the request. The most selective active dimension the request carries an
// attribute for drives assembly (its catch-alls plus the postings of the
// carried values); the remaining carried dimensions filter the list via
// their per-position pins. Children outside the returned list are
// guaranteed MatchNo for this request (see dimension), so the root
// combining algorithms can skip them exactly. When no dimension applies,
// every child is a candidate.
func (p *program) candidates(req *policy.Request, buf []int32) (cand []int32, usedBuf bool) {
	var driver *dimension
	var driverBag policy.Bag
	best := -1
	for di := range p.dims {
		d := &p.dims[di]
		if !d.active {
			continue
		}
		bag, ok := req.Get(d.cat, d.name)
		if !ok {
			continue
		}
		est := len(d.catchAll)
		for _, v := range bag {
			est += len(d.posting[valueKey(v)])
		}
		if best < 0 || est < best {
			best = est
			driver = d
			driverBag = bag
		}
	}
	if driver == nil {
		return p.universe, false
	}

	lists := 0
	if len(driver.catchAll) > 0 {
		buf = append(buf, driver.catchAll...)
		lists++
	}
	for _, v := range driverBag {
		if pl := driver.posting[valueKey(v)]; len(pl) > 0 {
			buf = append(buf, pl...)
			lists++
		}
	}
	if lists > 1 {
		// Each source list is ascending; restore global child order (the
		// combining algorithms are order-sensitive) and drop the overlaps
		// a multi-valued attribute can introduce.
		slices.Sort(buf)
		buf = slices.Compact(buf)
	}

	for di := range p.dims {
		d := &p.dims[di]
		if !d.active || d == driver {
			continue
		}
		bag, ok := req.Get(d.cat, d.name)
		if !ok {
			continue
		}
		keep := buf[:0]
		for _, pos := range buf {
			pins := d.pinned[pos]
			if pins == nil || bagHasAnyKey(bag, pins) {
				keep = append(keep, pos)
			}
		}
		buf = keep
	}
	return buf, true
}

// bagHasAnyKey reports whether any bag value's posting key appears in
// keys. A key match does not imply a value match (cross-kind collisions),
// but a key miss does imply no value Equal — the direction pruning needs.
func bagHasAnyKey(bag policy.Bag, keys []string) bool {
	for _, v := range bag {
		k := valueKey(v)
		for _, key := range keys {
			if k == key {
				return true
			}
		}
	}
	return false
}

// combineChildren runs the root combining algorithm over the candidate
// positions, mirroring policy.combine plus the root's decorate step
// (By-prefixing only: compiled roots carry no obligations).
func (p *program) combineChildren(ec *policy.Context, cand []int32, fallback *bool) policy.Result {
	switch p.combining {
	case policy.DenyOverrides:
		return p.combineRootOverrides(ec, cand, fallback, policy.DecisionDeny, policy.DecisionPermit)
	case policy.PermitOverrides:
		return p.combineRootOverrides(ec, cand, fallback, policy.DecisionPermit, policy.DecisionDeny)
	case policy.FirstApplicable:
		for _, pos := range cand {
			if res := p.evalChild(ec, pos, fallback); res.Decision != policy.DecisionNotApplicable {
				return res
			}
		}
		return policy.Result{Decision: policy.DecisionNotApplicable}
	case policy.OnlyOneApplicable:
		return p.combineRootOnlyOne(ec, cand, fallback)
	case policy.DenyUnlessPermit:
		return p.combineRootDefaulting(ec, cand, fallback, policy.DecisionPermit, policy.DecisionDeny)
	default: // PermitUnlessDeny — compileProgram admits nothing else
		return p.combineRootDefaulting(ec, cand, fallback, policy.DecisionDeny, policy.DecisionPermit)
	}
}

func (p *program) combineRootOverrides(ec *policy.Context, cand []int32, fallback *bool, override, merged policy.Decision) policy.Result {
	var (
		sawMerged, sawIndeterminate bool
		mergedRes, indetRes         policy.Result
	)
	for _, pos := range cand {
		res := p.evalChild(ec, pos, fallback)
		switch res.Decision {
		case override:
			return res
		case merged:
			if !sawMerged {
				sawMerged = true
				mergedRes = res
			} else {
				mergedRes.Obligations = append(mergedRes.Obligations, res.Obligations...)
			}
		case policy.DecisionIndeterminate:
			if !sawIndeterminate {
				sawIndeterminate = true
				indetRes = res
			}
		}
	}
	if sawIndeterminate {
		return indetRes
	}
	if sawMerged {
		return mergedRes
	}
	return policy.Result{Decision: policy.DecisionNotApplicable}
}

func (p *program) combineRootDefaulting(ec *policy.Context, cand []int32, fallback *bool, override, def policy.Decision) policy.Result {
	for _, pos := range cand {
		if res := p.evalChild(ec, pos, fallback); res.Decision == override {
			return res
		}
	}
	// The interpreter's bare default result picks up By through the
	// root's decorate; here that is the whole decoration.
	return policy.Result{Decision: def, By: p.rootID}
}

func (p *program) combineRootOnlyOne(ec *policy.Context, cand []int32, fallback *bool) policy.Result {
	selected := int32(-1)
	for _, pos := range cand {
		match, err := p.childTargetMatch(ec, pos)
		if match == policy.MatchIndeterminate {
			return policy.Result{Decision: policy.DecisionIndeterminate, By: p.children[pos].id, Err: err}
		}
		if match != policy.MatchYes {
			continue
		}
		if selected >= 0 {
			return policy.Result{
				Decision: policy.DecisionIndeterminate,
				By:       p.children[pos].id,
				Err: fmt.Errorf("policy: %s and %s both applicable: %w",
					p.children[selected].id, p.children[pos].id, policy.ErrOnlyOneApplicable),
			}
		}
		selected = pos
	}
	if selected < 0 {
		return policy.Result{Decision: policy.DecisionNotApplicable}
	}
	return p.evalChild(ec, selected, fallback)
}

func (p *program) childTargetMatch(ec *policy.Context, pos int32) (policy.MatchResult, error) {
	ch := &p.children[pos]
	if ch.pol != nil {
		return ch.pol.target.eval(ec)
	}
	return ch.src.TargetMatch(ec)
}

// evalChild evaluates one child to a fully decorated result. Compiled
// children come back complete; interpretive fallbacks get the root's
// By-prefix applied here (the interpreter's decorate, minus obligations —
// compiled roots have none).
func (p *program) evalChild(ec *policy.Context, pos int32, fallback *bool) policy.Result {
	ch := &p.children[pos]
	if ch.pol != nil {
		return ch.pol.eval(ec)
	}
	*fallback = true
	res := ch.src.Evaluate(ec)
	if res.Decision == policy.DecisionPermit || res.Decision == policy.DecisionDeny {
		if res.By == "" {
			res.By = p.rootID
		} else {
			res.By = p.rootID + "/" + res.By
		}
	}
	return res
}

// patched returns a copy of the program over newSet's children where the
// child at pos was replaced (delta 0), inserted (delta +1) or removed
// (delta -1), recompiling only the new child; everything unchanged is
// shared with the receiver, and posting lists are remapped with remap32 and
// insertPos32. The receiver is never mutated.
func (p *program) patched(newSet *policy.PolicySet, pos, delta int, add policy.Evaluable) *program {
	n := len(newSet.Children)
	out := &program{
		rootID:    p.rootID,
		combining: p.combining,
		target:    p.target,
		children:  make([]progChild, 0, n),
		compiled:  p.compiled,
	}
	tail := pos
	if delta <= 0 {
		tail = pos + 1
		if p.children[pos].pol != nil {
			out.compiled--
		}
	}
	out.children = append(out.children, p.children[:pos]...)
	if add != nil {
		out.children = append(out.children, compileChild(p.rootID, add))
		if out.children[pos].pol != nil {
			out.compiled++
		}
	}
	out.children = append(out.children, p.children[tail:]...)

	if delta == 0 {
		out.universe = p.universe
	} else {
		out.universe = make([]int32, n)
		for i := range out.universe {
			out.universe[i] = int32(i)
		}
	}
	for di := range p.dims {
		out.dims[di] = p.dims[di].patched(n, pos, delta, tail, add)
	}
	return out
}

// patched rebuilds one dimension after a child splice: postings and
// catch-alls remapped by position, the pinned array re-spliced, the new
// child (nil on delete) indexed at pos, and activity re-derived — a
// dimension can regain or lose selectivity as the base churns. Cost is
// O(dimension size) integer work; no unchanged child is re-derived.
func (d *dimension) patched(n, pos, delta, tail int, add policy.Evaluable) dimension {
	out := dimension{
		cat:     d.cat,
		name:    d.name,
		posting: make(map[string][]int32, len(d.posting)),
		pinned:  make([][]string, 0, n),
	}
	for key, positions := range d.posting {
		if next := remap32(positions, pos, delta); len(next) > 0 {
			out.posting[key] = next
		}
	}
	out.catchAll = remap32(d.catchAll, pos, delta)
	out.pinned = append(out.pinned, d.pinned[:pos]...)
	if add != nil {
		keys := pinnedKeys(targetOf(add), d.cat, d.name)
		out.pinned = append(out.pinned, keys)
		if keys == nil {
			out.catchAll = insertPos32(out.catchAll, int32(pos))
		} else {
			for _, k := range keys {
				out.posting[k] = insertPos32(out.posting[k], int32(pos))
			}
		}
	}
	out.pinned = append(out.pinned, d.pinned[tail:]...)
	out.active = 2*len(out.catchAll) <= n
	return out
}

// remap32 rewrites an ascending int32 position list after the child at
// pos was replaced (delta 0), inserted (delta +1) or removed (delta -1),
// matching policy.PolicySet.PatchChild: positions at or above pos shift by
// delta, and pos itself is dropped on replace or delete. The result is
// freshly allocated, so a patched program never shares a posting list's
// backing array with the snapshot readers may still hold.
func remap32(positions []int32, pos, delta int) []int32 {
	next := make([]int32, 0, len(positions)+1)
	for _, p := range positions {
		switch {
		case delta <= 0 && int(p) == pos:
			// replaced or removed: dropped; the caller re-adds the new
			// child where it lands
		case int(p) >= pos:
			next = append(next, p+int32(delta))
		default:
			next = append(next, p)
		}
	}
	return next
}

// insertPos32 adds pos to an ascending position list, keeping it sorted
// and duplicate-free. The input is not modified.
func insertPos32(positions []int32, pos int32) []int32 {
	i, found := slices.BinarySearch(positions, pos)
	if found {
		return positions
	}
	out := make([]int32, 0, len(positions)+1)
	out = append(out, positions[:i]...)
	out = append(out, pos)
	out = append(out, positions[i:]...)
	return out
}
