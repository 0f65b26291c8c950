package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/policy"
)

// Kind classifies a finding; see the package documentation for the
// taxonomy.
type Kind int

// Finding kinds.
const (
	KindConflict Kind = iota + 1
	KindShadow
	KindRedundancy
	KindDeadAttribute
	KindDeadZone
)

// Kinds lists every finding kind in canonical order.
func Kinds() []Kind {
	return []Kind{KindConflict, KindShadow, KindRedundancy, KindDeadAttribute, KindDeadZone}
}

// String returns the canonical kind name.
func (k Kind) String() string {
	switch k {
	case KindConflict:
		return "conflict"
	case KindShadow:
		return "shadow"
	case KindRedundancy:
		return "redundancy"
	case KindDeadAttribute:
		return "dead-attribute"
	case KindDeadZone:
		return "dead-zone"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Severity ranks findings. Only SeverityError findings block writes under
// the strict gate mode.
type Severity int

// Severity levels.
const (
	SeverityInfo Severity = iota + 1
	SeverityWarning
	SeverityError
)

// String returns the canonical severity name.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Ref locates a claim: the root child it was installed under (Owner), the
// policy that authored it and the rule within. For a top-level policy,
// Owner equals PolicyID; they differ for rules nested inside policy sets.
type Ref struct {
	Owner    string `json:"owner"`
	PolicyID string `json:"policy"`
	RuleID   string `json:"rule,omitempty"`
}

// String renders owner/policy/rule, collapsing the owner when redundant.
func (r Ref) String() string {
	return string(r.appendTo(make([]byte, 0, 64)))
}

func (r Ref) appendTo(b []byte) []byte {
	if r.Owner != "" && r.Owner != r.PolicyID {
		b = append(append(b, r.Owner...), ':')
	}
	b = append(b, r.PolicyID...)
	if r.RuleID != "" {
		b = append(append(b, '/'), r.RuleID...)
	}
	return b
}

// Finding is one static-analysis result.
type Finding struct {
	// Kind and Severity classify the finding.
	Kind     Kind     `json:"-"`
	Severity Severity `json:"-"`
	// Subject is the claim the finding is about: the shadowed,
	// redundant or unreachable rule, the permit side of a conflict, or
	// the policy holding a dead attribute reference.
	Subject Ref `json:"subject"`
	// Other is the counterpart claim of pairwise findings: the deny side
	// of a conflict, or the covering rule of a shadow, dead zone or
	// redundancy. Zero for dead-attribute findings.
	Other Ref `json:"-"`
	// Actual marks a conflict both of whose rules are condition-free.
	Actual bool `json:"actual,omitempty"`
	// Attribute names the dead reference as "category/name".
	Attribute string `json:"attribute,omitempty"`
	// Detail is the human-readable explanation.
	Detail string `json:"detail"`
	// alg is the combining algorithm a dead zone's Detail names, cond
	// marks a dead attribute referenced from a condition rather than a
	// target. Findings stand in the engine without Detail; rendered
	// writes it when they leave, and clears alg and cond.
	alg  policy.Algorithm
	cond bool
}

// MarshalJSON renders Kind and Severity by name and omits the zero Other
// of single-claim findings, the stable wire form the admin responses and
// acctl -json output share.
func (f Finding) MarshalJSON() ([]byte, error) {
	type alias Finding
	var other *Ref
	if f.Other != (Ref{}) {
		other = &f.Other
	}
	return json.Marshal(struct {
		Kind     string `json:"kind"`
		Severity string `json:"severity"`
		alias
		Other *Ref `json:"other,omitempty"`
	}{f.Kind.String(), f.Severity.String(), alias(f), other})
}

// Key returns the finding's identity for deduplication: two analyses that
// discover the same defect produce the same key. It is also the sort
// tiebreak of every report, so its bytes are fixed:
// kind|subject|other|attribute.
func (f Finding) Key() string {
	b := make([]byte, 0, 128)
	b = append(append(b, f.Kind.String()...), '|')
	b = append(f.Subject.appendTo(b), '|')
	b = append(f.Other.appendTo(b), '|')
	return string(append(b, f.Attribute...))
}

// rendered returns f with its Detail written out and alg and cond cleared.
func (f Finding) rendered() Finding {
	if f.Detail == "" {
		switch f.Kind {
		case KindConflict:
			word := "potential"
			if f.Actual {
				word = "actual"
			}
			f.Detail = fmt.Sprintf("%s modality conflict: %s permits and %s denies an overlapping tuple", word, f.Subject, f.Other)
		case KindShadow:
			f.Detail = fmt.Sprintf("%s is unreachable: %s precedes it under first-applicable and covers every tuple it matches", f.Subject, f.Other)
		case KindDeadZone:
			f.Detail = fmt.Sprintf("%s can never decide: %s covers it and always wins under %s", f.Subject, f.Other, f.alg)
		case KindRedundancy:
			f.Detail = fmt.Sprintf("%s is redundant: %s asserts the same effect for every tuple it covers", f.Subject, f.Other)
		case KindDeadAttribute:
			where := "target"
			if f.cond {
				where = "condition"
			}
			f.Detail = fmt.Sprintf("%s references attribute %s in its %s, which no registered information source or request bag can supply: the reference always resolves empty", f.Subject, f.Attribute, where)
		}
	}
	f.alg, f.cond = 0, false
	return f
}

// String renders the finding as one report line.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Severity, f.Kind, f.Detail)
}

// Report is a sorted, deduplicated set of findings.
type Report struct {
	Findings []Finding `json:"findings"`
}

// sortFindings orders findings by severity (errors first), kind, then key,
// so reports are deterministic and the worst news leads. keys[i] must be
// fs[i].Key(); it is permuted alongside, so no key is formatted during the
// sort.
func sortFindings(fs []Finding, keys []string) {
	sort.Sort(byRank{fs, keys})
}

type byRank struct {
	fs   []Finding
	keys []string
}

func (r byRank) Len() int { return len(r.fs) }

func (r byRank) Less(i, j int) bool {
	if r.fs[i].Severity != r.fs[j].Severity {
		return r.fs[i].Severity > r.fs[j].Severity
	}
	if r.fs[i].Kind != r.fs[j].Kind {
		return r.fs[i].Kind < r.fs[j].Kind
	}
	return r.keys[i] < r.keys[j]
}

func (r byRank) Swap(i, j int) {
	r.fs[i], r.fs[j] = r.fs[j], r.fs[i]
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
}

// Counts tallies findings by kind.
func (r Report) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for _, f := range r.Findings {
		out[f.Kind]++
	}
	return out
}

// Blocking returns the findings that reject a write under the strict gate
// mode: everything at SeverityError.
func (r Report) Blocking() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == SeverityError {
			out = append(out, f)
		}
	}
	return out
}

// Clean reports an empty finding set.
func (r Report) Clean() bool { return len(r.Findings) == 0 }

// Summary renders a one-line tally ("2 errors, 3 warnings: 1 conflict,
// ..."), or "clean" for an empty report.
func (r Report) Summary() string {
	if r.Clean() {
		return "clean"
	}
	bySev := make(map[Severity]int)
	for _, f := range r.Findings {
		bySev[f.Severity]++
	}
	return summarize(bySev, r.Counts())
}

// summarize renders the tally of a non-empty finding set from its
// per-severity and per-kind counts.
func summarize(bySev map[Severity]int, byKind map[Kind]int) string {
	var parts []string
	for _, sev := range []Severity{SeverityError, SeverityWarning, SeverityInfo} {
		if n := bySev[sev]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s(s)", n, sev))
		}
	}
	var kinds []string
	for _, k := range Kinds() {
		if n := byKind[k]; n > 0 {
			kinds = append(kinds, fmt.Sprintf("%d %s", n, k))
		}
	}
	return strings.Join(parts, ", ") + ": " + strings.Join(kinds, ", ")
}

// Text renders the full report, one finding per line, summary last.
func (r Report) Text() string {
	var b strings.Builder
	for _, f := range r.Findings {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	b.WriteString(r.Summary())
	b.WriteByte('\n')
	return b.String()
}

// Merge deduplicates and sorts findings from several partial analyses into
// one report — the aggregation step for per-shard analysis on a cluster
// router, where a pair of overlapping claims co-resides on at least one
// shard and may co-reside on several.
func Merge(reports ...Report) Report {
	seen := make(map[string]struct{})
	var out []Finding
	var keys []string
	for _, r := range reports {
		for _, f := range r.Findings {
			key := f.Key()
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			out = append(out, f)
			keys = append(keys, key)
		}
	}
	sortFindings(out, keys)
	return Report{Findings: out}
}
