package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/dialect"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/xacml"
)

// RunE15Heterogeneity quantifies the policy-heterogeneity discussion of
// Section 3.1: what converging from a local policy dialect onto the
// standard language costs (translation time) and what each representation
// weighs on the wire (the XML-verbosity point of Section 3.2, measured
// across local dialect, standard XML and standard JSON). The translation is
// checked for decision fidelity on every run: the compiled set and its
// XML round trip must decide identically on a request sample.
func RunE15Heterogeneity() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E15 — §3.1 policy heterogeneity: dialect->standard translation cost and representation sizes",
		"policies", "dialect B", "xml B", "json B", "xml/dialect", "xml/json",
		"translate µs", "decisions checked")
	for _, n := range []int{1, 10, 100, 500} {
		src := syntheticDialect(n)
		start := time.Now()
		set, err := dialect.Translate("local", policy.DenyOverrides, src)
		if err != nil {
			return nil, fmt.Errorf("E15: translate %d policies: %w", n, err)
		}
		translateTime := time.Since(start)

		xmlData, err := xacml.MarshalXML(set)
		if err != nil {
			return nil, err
		}
		jsonData, err := xacml.MarshalJSON(set)
		if err != nil {
			return nil, err
		}
		decoded, err := xacml.UnmarshalXML(xmlData)
		if err != nil {
			return nil, err
		}
		checked, err := checkFidelity(set, decoded, n)
		if err != nil {
			return nil, err
		}
		table.AddRow(n, len(src), len(xmlData), len(jsonData),
			fmt.Sprintf("%.2f", float64(len(xmlData))/float64(len(src))),
			fmt.Sprintf("%.2f", float64(len(xmlData))/float64(len(jsonData))),
			translateTime.Microseconds(), checked)
	}
	return table, nil
}

// syntheticDialect writes an n-policy document in the local dialect: one
// resource-scoped policy per resource, each permitting a role to read and
// seniors to write, denying otherwise — the workload.PolicyBase shape in
// its local-language form.
func syntheticDialect(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `policy res-%d-policy first-applicable {
  target resource.resource-id == "res-%d"
  permit readers when subject.role has "role-%d" and action.action-id == "read"
  permit writers when subject.clearance > 3 and action.action-id == "write" {
    obligate log on permit { level = "info" }
  }
  deny default
}
`, i, i, i%10)
	}
	return sb.String()
}

// checkFidelity evaluates both forms over a deterministic request sample
// and fails on any divergence, returning the number of checked requests.
func checkFidelity(a, b policy.Evaluable, resources int) (int, error) {
	rng := rand.New(rand.NewSource(15))
	at := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	const samples = 64
	for i := 0; i < samples; i++ {
		res := fmt.Sprintf("res-%d", rng.Intn(resources))
		action := "read"
		if rng.Intn(2) == 1 {
			action = "write"
		}
		req := policy.NewAccessRequest(fmt.Sprintf("u-%d", i), res, action).
			Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String(fmt.Sprintf("role-%d", rng.Intn(12)))).
			Add(policy.CategorySubject, policy.AttrClearance, policy.Integer(int64(rng.Intn(6))))
		ra := a.Evaluate(policy.NewContextAt(req, at))
		rb := b.Evaluate(policy.NewContextAt(req, at))
		if ra.Decision != rb.Decision || ra.By != rb.By {
			return i, fmt.Errorf("E15: translation infidelity on %s %s: %v/%q vs %v/%q",
				action, res, ra.Decision, ra.By, rb.Decision, rb.By)
		}
	}
	return samples, nil
}
