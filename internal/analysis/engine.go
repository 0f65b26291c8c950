package analysis

import (
	"maps"
	"sync"
	"time"

	"repro/internal/policy"
	"repro/internal/telemetry"
)

// Config parameterises an analysis: how the root combines its children
// and which attributes the deployment can supply.
type Config struct {
	// RootCombining is the policy-combining algorithm of the root set
	// the analysed children live under; it governs cross-policy claim
	// relationships. Zero defaults to deny-overrides, the repository's
	// conventional root.
	RootCombining policy.Algorithm
	// Vocabulary bounds dead-attribute analysis; nil defaults to
	// BaseVocabulary (request-bag conventions only, no PIPs).
	Vocabulary *Vocabulary
}

func (c Config) normalized() Config {
	if c.RootCombining == 0 {
		c.RootCombining = policy.DenyOverrides
	}
	if c.Vocabulary == nil {
		c.Vocabulary = BaseVocabulary()
	}
	return c
}

// ownerState is everything the engine keeps per root child.
type ownerState struct {
	claims []claim
	// keys and wildcard index the owner by the exact resource ids its
	// non-universal claims constrain; a wildcard owner can overlap
	// anything.
	keys     []string
	wildcard bool
	// findings reverse-indexes the standing findings touching this
	// owner, so removing the owner removes exactly its findings.
	findings []fkey
	// nu and uv count the owner's distinct non-universal and universal
	// claim refs by shape. tally, kept for an owner holding universal
	// claims, counts every other owner's distinct non-universal refs by
	// class (see count).
	nu, uv [4]int32
	tally  [8]int32
}

func newOwnerState(id string, ev policy.Evaluable) *ownerState {
	st := &ownerState{claims: normalizeClaims(id, ev)}
	st.keys, st.wildcard = resourceKeys(st.claims)
	for i := range st.claims {
		c := &st.claims[i]
		switch {
		case c.repeat: // counted with its first copy
		case c.universal:
			st.uv[c.shape()]++
		default:
			st.nu[c.shape()]++
		}
	}
	return st
}

// count adds d times another owner's non-universal shape counts nu to the
// tally. A class is a shape plus, in bit 0, whether the other owner sorts
// after this one — the order first-applicable root combining evaluates
// them in, which decides between shadow and redundancy.
func (st *ownerState) count(nu [4]int32, after bool, d int32) {
	a := 0
	if after {
		a = 1
	}
	for s, n := range nu {
		st.tally[2*s+a] += d * n
	}
}

// Stats is a snapshot of engine counters.
type Stats struct {
	// IncrementalRuns counts Apply calls, FullRuns Install calls.
	IncrementalRuns, FullRuns int64
	// Policies and Claims size the current base.
	Policies, Claims int
	// Findings tallies the current finding set by kind, Severities by
	// severity.
	Findings   map[Kind]int
	Severities map[Severity]int
}

// Engine is the incremental analyser: it keeps the policy base's
// non-universal claims indexed by exact resource id and re-analyses only
// the changed child against the owners whose claims can overlap it. A
// universal claim's findings against other owners' non-universal claims
// are not stored but tallied per class, and expanded by Report and
// Preview. The finding set after any sequence of Apply calls equals
// from-scratch analysis of the resulting base (the delta-equivalence
// property the tests assert), because every finding is a pure function of
// one claim pair — or one owner — and neither the index nor the tallies
// miss an overlapping pair.
//
// All methods are safe for concurrent use; analysis runs under one mutex,
// off the decision hot path.
type Engine struct {
	mu       sync.Mutex
	cfg      Config
	owners   map[string]*ownerState
	byKey    map[string]map[string]struct{} // resource id -> owners constraining it
	wildcard map[string]struct{}            // owners with a resource-wildcard claim
	// universal holds the owners with a universal claim; classes[s][k]
	// are the findings a universal claim of shape s has against any
	// non-universal claim of class k (see ownerState.count).
	universal map[string]struct{}
	classes   [4][8][]Finding
	// findings is the standing set (see fkey); deletes counts removals
	// since it was last rebuilt. refs and attrs intern the strings its ids
	// stand for, and buf renders a ref for lookup. Findings stand without
	// Detail (see Finding.rendered).
	findings map[fkey]fval
	deletes  int
	refs     interner[Ref]
	attrs    interner[struct{}]
	buf      []byte
	// claims, byKind and bySev are kept current on every stored add and
	// remove (the maps hold non-zero counts only), so Stats and Summary
	// never walk the finding set.
	claims int
	byKind map[Kind]int
	bySev  map[Severity]int

	incRuns, fullRuns int64
	lat               telemetry.Histogram
}

// NewEngine builds an empty incremental analyser.
func NewEngine(cfg Config) *Engine {
	e := &Engine{cfg: cfg.normalized()}
	e.classes = classTable(e.cfg.RootCombining)
	e.resetLocked()
	return e
}

// classTable lists the findings of one universal claim of each shape
// against one non-universal claim of another owner in each class. For such
// a pair overlap and the universal claim's coverage always hold and the
// reverse coverage never does, so the findings of two representatives
// stand for every pair of the class.
func classTable(root policy.Algorithm) (t [4][8][]Finding) {
	rep := func(shape int, owner string, resources constraint) claim {
		c := claim{Owner: owner, universal: resources == nil}
		c.Effect, c.Conditional, c.Resources = policy.EffectDeny, shape&2 != 0, resources
		if shape&1 != 0 {
			c.Effect = policy.EffectPermit
		}
		return c
	}
	for s := range t {
		u := rep(s, "m", nil)
		for k := range t[s] {
			owner := "a"
			if k&1 != 0 {
				owner = "z"
			}
			c := rep(k>>1, owner, constraint{"r"})
			pairFindings(&u, &c, root, func(f Finding) { t[s][k] = append(t[s][k], f) })
		}
	}
	return t
}

func (e *Engine) resetLocked() {
	e.owners = make(map[string]*ownerState)
	e.byKey = make(map[string]map[string]struct{})
	e.wildcard = make(map[string]struct{})
	e.universal = make(map[string]struct{})
	e.findings = make(map[fkey]fval)
	e.deletes = 0
	e.refs = newInterner[Ref]()
	e.attrs = newInterner[struct{}]()
	e.claims = 0
	e.byKind = make(map[Kind]int)
	e.bySev = make(map[Severity]int)
}

// Install replaces the analysed base with the given root children in one
// full run. Nil children are skipped.
func (e *Engine) Install(children ...policy.Evaluable) {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.resetLocked()
	for _, ch := range children {
		if ch != nil {
			e.applyLocked(ch.EntityID(), ch)
		}
	}
	e.fullRuns++
	e.lat.Observe(time.Since(start))
}

// Apply folds one delta into the analysis: ev replaces the root child id,
// or removes it when nil. This is the subscriber shape for a pap.Store
// watch: install and replace map to Apply(id, policy), delete to
// Apply(id, nil).
func (e *Engine) Apply(id string, ev policy.Evaluable) {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.applyLocked(id, ev)
	e.incRuns++
	e.lat.Observe(time.Since(start))
}

func (e *Engine) applyLocked(id string, ev policy.Evaluable) {
	e.removeOwnerLocked(id)
	if ev == nil {
		return
	}
	st := newOwnerState(id, ev)
	e.owners[id] = st
	e.claims += len(st.claims)
	for _, k := range st.keys {
		set, ok := e.byKey[k]
		if !ok {
			set = make(map[string]struct{})
			e.byKey[k] = set
		}
		set[id] = struct{}{}
	}
	if st.wildcard {
		e.wildcard[id] = struct{}{}
	}
	e.pairedLocked(id, ev, st, e.addFindingLocked)
	e.tallyLocked(id, st, 1)
}

// tallyLocked adds (d = 1) or takes back (d = -1) owner id's share of the
// tallies: its non-universal refs in every other universal owner's tally
// and, when it holds universal claims, its own tally over every other
// owner.
func (e *Engine) tallyLocked(id string, st *ownerState, d int32) {
	if st.nu != [4]int32{} {
		for w := range e.universal {
			if w != id {
				e.owners[w].count(st.nu, id > w, d)
			}
		}
	}
	switch {
	case st.uv == [4]int32{}:
	case d < 0:
		delete(e.universal, id)
	default:
		for other, ost := range e.owners {
			if other != id {
				st.count(ost.nu, other > id, 1)
			}
		}
		e.universal[id] = struct{}{}
	}
}

// findingsForLocked passes to emit every finding involving the candidate
// state of owner id: the findings the engine stores and those its tallies
// stand for — universal claims against other owners' non-universal ones —
// expanded. It does not mutate the engine, which is what lets Preview
// share it.
func (e *Engine) findingsForLocked(id string, ev policy.Evaluable, st *ownerState, emit func(Finding)) {
	e.pairedLocked(id, ev, st, emit)
	if st.uv != [4]int32{} {
		for other, ost := range e.owners {
			if other != id {
				e.pairs(st.claims, true, ost.claims, false, emit)
			}
		}
	}
	for w := range e.universal {
		if w != id {
			e.pairs(e.owners[w].claims, true, st.claims, false, emit)
		}
	}
}

// pairedLocked passes to emit every stored finding involving the
// candidate state of owner id: its single-owner findings, its intra-owner
// claim pairs, its non-universal claims against those of each indexed
// owner that can overlap them, and its universal claims against those of
// every other owner.
func (e *Engine) pairedLocked(id string, ev policy.Evaluable, st *ownerState, emit func(Finding)) {
	deadAttributes(id, ev, e.cfg.Vocabulary, emit)
	for i := range st.claims {
		for j := i + 1; j < len(st.claims); j++ {
			pairFindings(&st.claims[i], &st.claims[j], e.cfg.RootCombining, emit)
		}
	}
	for other := range e.candidateOwnersLocked(st, id) {
		e.pairs(st.claims, false, e.owners[other].claims, false, emit)
	}
	for w := range e.universal {
		if w != id {
			e.pairs(st.claims, true, e.owners[w].claims, true, emit)
		}
	}
}

// pairs passes to emit the findings of every pair of an xs claim whose
// universality is xu and a ys claim whose universality is yu.
func (e *Engine) pairs(xs []claim, xu bool, ys []claim, yu bool, emit func(Finding)) {
	for i := range xs {
		if xs[i].universal != xu {
			continue
		}
		for j := range ys {
			if ys[j].universal == yu {
				pairFindings(&xs[i], &ys[j], e.cfg.RootCombining, emit)
			}
		}
	}
}

// candidateOwnersLocked returns the owners whose claims can overlap the
// candidate state's: the owners sharing an exact resource id, every
// resource-wildcard owner, and — when the candidate itself has a wildcard
// claim — every owner. Completeness follows from overlap requiring the
// resource dimensions to share a value or include a wildcard, and every
// pairwise finding requiring overlap.
func (e *Engine) candidateOwnersLocked(st *ownerState, self string) map[string]struct{} {
	out := make(map[string]struct{})
	if st.wildcard {
		for id := range e.owners {
			if id != self {
				out[id] = struct{}{}
			}
		}
		return out
	}
	for _, k := range st.keys {
		for id := range e.byKey[k] {
			if id != self {
				out[id] = struct{}{}
			}
		}
	}
	for id := range e.wildcard {
		if id != self {
			out[id] = struct{}{}
		}
	}
	return out
}

// Report snapshots the current finding set, sorted and deduplicated: the
// stored findings and the tallied ones, expanded. The findings are
// rendered, keyed and sorted after the lock is released.
func (e *Engine) Report() Report {
	e.mu.Lock()
	_, bySev := e.countsLocked()
	n := 0
	for _, c := range bySev {
		n += c
	}
	fs := make([]Finding, 0, n)
	for k, v := range e.findings {
		fs = append(fs, e.materialize(k, v))
	}
	add := func(f Finding) { fs = append(fs, f) }
	for w := range e.universal {
		for other, ost := range e.owners {
			if other != w {
				e.pairs(e.owners[w].claims, true, ost.claims, false, add)
			}
		}
	}
	e.mu.Unlock()
	keys := make([]string, len(fs))
	for i := range fs {
		fs[i] = fs[i].rendered()
		keys[i] = fs[i].Key()
	}
	sortFindings(fs, keys)
	// A verbatim-duplicate rule, or a ref aliased across owners (see
	// fkey), expands one tallied finding twice; the copies sort next to
	// each other.
	out := fs[:0]
	for i := range fs {
		if i == 0 || keys[i] != keys[i-1] {
			out = append(out, fs[i])
		}
	}
	return Report{Findings: out}
}

// Summary returns Report().Summary() from the standing counts, without
// building the report.
func (e *Engine) Summary() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	byKind, bySev := e.countsLocked()
	if len(bySev) == 0 {
		return "clean"
	}
	return summarize(bySev, byKind)
}

// countsLocked tallies the standing findings by kind and severity: the
// stored findings' running counts plus, for each universal owner, its
// universal claims' classes times the class tallies.
func (e *Engine) countsLocked() (map[Kind]int, map[Severity]int) {
	byKind, bySev := maps.Clone(e.byKind), maps.Clone(e.bySev)
	for w := range e.universal {
		st := e.owners[w]
		for s, us := range st.uv {
			for k, cs := range st.tally {
				for _, f := range e.classes[s][k] {
					if n := int(us) * int(cs); n > 0 {
						byKind[f.Kind] += n
						bySev[f.Severity] += n
					}
				}
			}
		}
	}
	return byKind, bySev
}

// Preview analyses a hypothetical write without applying it: the findings
// that would involve root child id if ev replaced it (the child's current
// claims are excluded, so replacing a policy is not checked against its
// own previous revision). A nil ev — a delete — previews clean. This is
// the admin-plane gate primitive.
func (e *Engine) Preview(id string, ev policy.Evaluable) Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ev == nil {
		return Report{}
	}
	var fs []Finding
	e.findingsForLocked(id, ev, newOwnerState(id, ev), func(f Finding) { fs = append(fs, f.rendered()) })
	return Merge(Report{Findings: fs})
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	byKind, bySev := e.countsLocked()
	return Stats{
		IncrementalRuns: e.incRuns,
		FullRuns:        e.fullRuns,
		Policies:        len(e.owners),
		Claims:          e.claims,
		Findings:        byKind,
		Severities:      bySev,
	}
}

// RegisterMetrics exposes the engine's counters on the registry,
// pull-model: collectors take the engine lock only at scrape time. The
// prefix distinguishes multiple engines on one registry; it must be a
// valid metric-name fragment ("analysis" is the conventional choice).
func (e *Engine) RegisterMetrics(reg *telemetry.Registry) {
	reg.Register("repro_analysis_findings",
		"Static-analysis findings currently standing, by kind.",
		telemetry.KindGauge, func() []telemetry.Sample {
			st := e.Stats()
			samples := make([]telemetry.Sample, 0, len(st.Findings))
			for _, k := range Kinds() {
				samples = append(samples, telemetry.Sample{
					Labels: []telemetry.Label{telemetry.L("kind", k.String())},
					Value:  float64(st.Findings[k]),
				})
			}
			return samples
		})
	reg.Register("repro_analysis_runs_total",
		"Analysis runs, by mode (incremental delta vs full install).",
		telemetry.KindCounter, func() []telemetry.Sample {
			st := e.Stats()
			return []telemetry.Sample{
				{Labels: []telemetry.Label{telemetry.L("mode", "incremental")}, Value: float64(st.IncrementalRuns)},
				{Labels: []telemetry.Label{telemetry.L("mode", "full")}, Value: float64(st.FullRuns)},
			}
		})
	reg.GaugeFunc("repro_analysis_claims",
		"Authorisation claims currently indexed.",
		func() int64 { return int64(e.Stats().Claims) })
	reg.Register("repro_analysis_latency_seconds",
		"Analysis run latency (incremental and full).",
		telemetry.KindHistogram, func() []telemetry.Sample {
			return []telemetry.Sample{{Hist: e.lat.Snapshot()}}
		})
}

// precedes orders two claims canonically: owners lexicographically, then
// document order within an owner. For order-dependent combining this is
// the evaluation order the analysis assumes — root children in
// lexicographic id order, matching the deterministic root the policy
// administration point builds.
func precedes(a, b *claim) bool {
	if a.Owner != b.Owner {
		return a.Owner < b.Owner
	}
	return a.Seq < b.Seq
}

// pairFindings passes to emit every finding a pair of distinct,
// satisfiable claims produces, without Detail. It is symmetric in its
// claim arguments and pure, which is what makes incremental re-analysis
// equivalent to from-scratch analysis.
func pairFindings(x, y *claim, root policy.Algorithm, emit func(Finding)) {
	if x.Owner == y.Owner && x.Seq == y.Seq {
		return
	}
	a, b := x, y
	if !precedes(a, b) {
		a, b = b, a
	}
	if !a.overlaps(b) {
		return
	}
	cross := a.Owner != b.Owner
	var alg policy.Algorithm
	switch {
	case cross:
		alg = root
	case a.PolicyID == b.PolicyID:
		alg = a.Algorithm
	default:
		alg = a.GroupAlg
	}

	if a.Effect != b.Effect {
		p, d := a, b
		if p.Effect != policy.EffectPermit {
			p, d = d, p
		}
		actual := !a.Conditional && !b.Conditional
		sev := SeverityWarning
		if actual && cross {
			sev = SeverityError
		}
		emit(Finding{
			Kind: KindConflict, Severity: sev,
			Subject: p.ref(), Other: d.ref(), Actual: actual,
		})
	}

	shadowed := false
	if alg == policy.FirstApplicable && !a.Conditional && a.covers(b) {
		shadowed = true
		sev := SeverityWarning
		if cross {
			sev = SeverityError
		}
		emit(Finding{
			Kind: KindShadow, Severity: sev,
			Subject: b.ref(), Other: a.ref(),
		})
	}

	if alg == policy.DenyOverrides || alg == policy.PermitOverrides {
		win := policy.EffectDeny
		if alg == policy.PermitOverrides {
			win = policy.EffectPermit
		}
		for _, pair := range [2][2]*claim{{a, b}, {b, a}} {
			w, l := pair[0], pair[1]
			if w.Effect == win && l.Effect != win && !w.Conditional && w.covers(l) {
				emit(Finding{
					Kind: KindDeadZone, Severity: SeverityWarning,
					Subject: l.ref(), Other: w.ref(), alg: alg,
				})
			}
		}
	}

	if a.Effect == b.Effect && !shadowed {
		switch {
		case !a.Conditional && a.covers(b):
			emit(redundancyFinding(b, a))
		case !b.Conditional && b.covers(a):
			emit(redundancyFinding(a, b))
		}
	}
}

func redundancyFinding(covered, covering *claim) Finding {
	return Finding{
		Kind: KindRedundancy, Severity: SeverityWarning,
		Subject: covered.ref(), Other: covering.ref(),
	}
}
