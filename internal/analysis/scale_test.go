package analysis

import (
	"fmt"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// vetoBase builds the cold benchmark's policy shape (bench/inputs.go
// policyBase with veto on): n workload.ResourcePolicy children over 16
// roles plus k target-less vetoes, each one Deny rule conditioned on
// clearance. Every veto overlaps every permit rule, so the base stands at
// n*2*k potential conflicts plus 2n intra-policy actual ones.
func vetoBase(n, k int) []policy.Evaluable {
	out := make([]policy.Evaluable, 0, n+k)
	for i := 0; i < n; i++ {
		out = append(out, workload.ResourcePolicy(i, 16))
	}
	for j := 0; j < k; j++ {
		out = append(out, policy.NewPolicy(fmt.Sprintf("veto-%02d", j)).
			Combining(policy.DenyOverrides).
			Rule(policy.Deny("low-clearance").
				If(policy.Call(policy.FnLessThan,
					policy.SubjectAttr(policy.AttrClearance),
					policy.Lit(policy.Integer(int64(j+1))))).
				Build()).
			Build())
	}
	return out
}

// BenchmarkInstallVetoBase times the pdpd start-up path on the cold
// benchmark's shape: one full Install and the start-up Summary line.
// -bench 'VetoBase/n=4096' is the benchmark's own base.
func BenchmarkInstallVetoBase(b *testing.B) {
	for _, n := range []int{512, 4096} {
		base := vetoBase(n, 32)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := NewEngine(Config{})
				e.Install(base...)
				_ = e.Summary()
			}
		})
	}
}

// TestInstallAllocsPerFinding keeps the standing set's cost proportional
// to the findings it holds: building the cold base and its start-up
// summary may allocate at most three times per standing finding (the key,
// the stored finding and amortised map growth), so a per-finding Sprintf
// or a per-finding slice cannot come back unnoticed.
func TestInstallAllocsPerFinding(t *testing.T) {
	const n, k = 512, 32
	base := vetoBase(n, k)
	var summary string
	allocs := testing.AllocsPerRun(1, func() {
		e := NewEngine(Config{})
		e.Install(base...)
		summary = e.Summary()
	})
	findings := n * 2 * (k + 1)
	if want := fmt.Sprintf("%d warning(s): %d conflict", findings, findings); summary != want {
		t.Fatalf("summary = %q, want %q", summary, want)
	}
	if per := allocs / float64(findings); per > 3 {
		t.Fatalf("Install+Summary allocated %.0f times for %d findings: %.2f per finding, budget 3", allocs, findings, per)
	}
}
