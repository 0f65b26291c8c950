package analysis

import (
	"maps"
	"sync"
	"time"

	"repro/internal/conflict"
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
	// claims constrain; a wildcard owner can overlap anything.
	keys     []string
	wildcard bool
	// findings reverse-indexes the standing findings touching this
	// owner, so removing the owner removes exactly its findings.
	findings []fkey
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

// Engine is the incremental analyser: it keeps the policy base's claims
// indexed by exact resource id and re-analyses only the changed child
// against the owners whose claims can overlap it. The finding set after
// any sequence of Apply calls equals from-scratch analysis of the
// resulting base (the delta-equivalence property the tests assert),
// because every finding is a pure function of one claim pair — or one
// owner — and the index never misses an overlapping pair.
//
// All methods are safe for concurrent use; analysis runs under one mutex,
// off the decision hot path.
type Engine struct {
	mu       sync.Mutex
	cfg      Config
	owners   map[string]*ownerState
	byKey    map[string]map[string]struct{} // resource id -> owners constraining it
	wildcard map[string]struct{}            // owners with a resource-wildcard claim
	// findings is the standing set (see fkey); deletes counts removals
	// since it was last rebuilt. refs and attrs intern the strings its ids
	// stand for, and buf renders a ref for lookup. Findings stand without
	// Detail (see Finding.rendered).
	findings map[fkey]fval
	deletes  int
	refs     interner[Ref]
	attrs    interner[struct{}]
	buf      []byte
	// claims, byKind and bySev are kept current on every add and remove
	// (the maps hold non-zero counts only), so Stats and Summary never
	// walk the finding set.
	claims int
	byKind map[Kind]int
	bySev  map[Severity]int

	incRuns, fullRuns int64
	lat               telemetry.Histogram
}

// NewEngine builds an empty incremental analyser.
func NewEngine(cfg Config) *Engine {
	e := &Engine{cfg: cfg.normalized()}
	e.resetLocked()
	return e
}

func (e *Engine) resetLocked() {
	e.owners = make(map[string]*ownerState)
	e.byKey = make(map[string]map[string]struct{})
	e.wildcard = make(map[string]struct{})
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
	st := &ownerState{claims: normalizeClaims(id, ev)}
	st.keys, st.wildcard = resourceKeys(st.claims)
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
	e.findingsForLocked(id, ev, st, e.addFindingLocked)
}

// findingsForLocked passes to emit every finding involving the candidate
// state of owner id: its single-owner findings, its intra-owner claim
// pairs, and its pairs against each other indexed owner that can overlap
// it. It does not mutate the engine, which is what lets Preview share it.
func (e *Engine) findingsForLocked(id string, ev policy.Evaluable, st *ownerState, emit func(Finding)) {
	deadAttributes(id, ev, e.cfg.Vocabulary, emit)
	for i := range st.claims {
		for j := i + 1; j < len(st.claims); j++ {
			pairFindings(&st.claims[i], &st.claims[j], e.cfg.RootCombining, emit)
		}
	}
	for other := range e.candidateOwnersLocked(st, id) {
		theirs := e.owners[other].claims
		for i := range st.claims {
			for j := range theirs {
				pairFindings(&st.claims[i], &theirs[j], e.cfg.RootCombining, emit)
			}
		}
	}
}

// candidateOwnersLocked returns the owners whose claims can overlap the
// candidate state's: the owners sharing an exact resource id, every
// resource-wildcard owner, and — when the candidate itself has a wildcard
// claim — every owner. Completeness follows from Overlap requiring the
// resource dimensions to share a value or include a wildcard, and every
// pairwise finding requiring Overlap.
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

// Report snapshots the current finding set, sorted and deduplicated. The
// findings are rendered, keyed and sorted after the lock is released.
func (e *Engine) Report() Report {
	e.mu.Lock()
	fs := make([]Finding, 0, len(e.findings))
	for k, v := range e.findings {
		fs = append(fs, e.materialize(k, v))
	}
	e.mu.Unlock()
	keys := make([]string, len(fs))
	for i := range fs {
		fs[i] = fs[i].rendered()
		keys[i] = fs[i].Key()
	}
	sortFindings(fs, keys)
	return Report{Findings: fs}
}

// Summary returns Report().Summary() from the standing counts, without
// building the report.
func (e *Engine) Summary() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.findings) == 0 {
		return "clean"
	}
	return summarize(e.bySev, e.byKind)
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
	st := &ownerState{claims: normalizeClaims(id, ev)}
	st.keys, st.wildcard = resourceKeys(st.claims)
	var fs []Finding
	e.findingsForLocked(id, ev, st, func(f Finding) { fs = append(fs, f.rendered()) })
	return Merge(Report{Findings: fs})
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		IncrementalRuns: e.incRuns,
		FullRuns:        e.fullRuns,
		Policies:        len(e.owners),
		Claims:          e.claims,
		Findings:        maps.Clone(e.byKind),
		Severities:      maps.Clone(e.bySev),
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
	if !conflict.Overlap(a.Claim, b.Claim) {
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
	if alg == policy.FirstApplicable && !a.Conditional && a.Claim.Covers(b.Claim) {
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
			if w.Effect == win && l.Effect != win && !w.Conditional && w.Claim.Covers(l.Claim) {
				emit(Finding{
					Kind: KindDeadZone, Severity: SeverityWarning,
					Subject: l.ref(), Other: w.ref(), alg: alg,
				})
			}
		}
	}

	if a.Effect == b.Effect && !shadowed {
		switch {
		case !a.Conditional && a.Claim.Covers(b.Claim):
			emit(redundancyFinding(b, a))
		case !b.Conditional && b.Claim.Covers(a.Claim):
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
