package analysis

import (
	"fmt"
	"runtime"
	"testing"
	"time"

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

// BenchmarkStandingSetGC times one forced full collection with the cold
// benchmark's engine live (4096 policies + 32 vetoes): the mark cost the
// standing finding set adds to every GC cycle of the daemon.
func BenchmarkStandingSetGC(b *testing.B) {
	e := NewEngine(Config{})
	e.Install(vetoBase(4096, 32)...)
	runtime.GC()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.ReportMetric(float64(time.Since(start).Microseconds())/1e3/float64(b.N), "ms/op")
	runtime.KeepAlive(e)
}

// TestApplyBeatsInstallAt10k guards the incremental analyser: on the
// 10 000-resource, 20-role workload base, re-analysing one rewritten
// policy (Apply) must cost at least 10x less than a from-scratch Install
// of the base. The claim index is what keeps a delta's cost tied to the
// owners its resource keys overlap; a delta that re-ran the whole base
// would cost one Install (measured gap: three orders of magnitude).
func TestApplyBeatsInstallAt10k(t *testing.T) {
	if testing.Short() {
		t.Skip("times a full analysis of 10 000 policies")
	}
	const resources, roles = 10_000, 20
	base := workload.NewGenerator(workload.Config{Users: 100, Resources: resources, Roles: roles, Seed: 23}).
		PolicyBase("base")
	e := NewEngine(Config{RootCombining: base.Combining})
	start := time.Now()
	e.Install(base.Children...)
	install := time.Since(start)

	const deltas = 50
	start = time.Now()
	for i := 0; i < deltas; i++ {
		p := workload.ResourcePolicy((i*2017)%resources, roles)
		e.Apply(p.ID, p)
	}
	apply := time.Since(start) / deltas
	speedup := float64(install) / float64(apply)
	t.Logf("10k policies: Install %v, mean Apply %v (%.0fx)", install, apply, speedup)
	if speedup < 10 {
		t.Fatalf("mean Apply %v vs Install %v: %.1fx, want >= 10x", apply, install, speedup)
	}
}

// liveHeap returns the live heap after two full collections (the second
// frees what sync.Pool victim caches kept through the first).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestInstallAllocsPerFinding keeps the standing set's cost proportional
// to the findings it holds: building the cold base and its start-up
// summary may allocate at most once per two standing findings (amortised
// map and reverse-list growth, claims and interned refs), so a per-finding
// key, Sprintf or heap object cannot come back unnoticed.
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
	per := allocs / float64(findings)
	t.Logf("Install+Summary: %.0f allocs for %d findings, %.2f per finding", allocs, findings, per)
	if per > 0.5 {
		t.Fatalf("Install+Summary allocated %.0f times for %d findings: %.2f per finding, budget 0.5", allocs, findings, per)
	}
}

// TestStandingHeapPerFinding bounds the live heap an installed engine
// holds per standing finding, claims and intern tables included.
func TestStandingHeapPerFinding(t *testing.T) {
	const n, k = 512, 32
	base := vetoBase(n, k)
	before := liveHeap()
	e := NewEngine(Config{})
	e.Install(base...)
	after := liveHeap()
	runtime.KeepAlive(base)
	findings := n * 2 * (k + 1)
	if got := len(e.Report().Findings); got != findings {
		t.Fatalf("standing findings = %d, want %d", got, findings)
	}
	per := float64(after-before) / float64(findings)
	t.Logf("installed engine: %d B of live heap for %d findings, %.0f B per finding", after-before, findings, per)
	if per > 160 {
		t.Fatalf("installed engine holds %d B of live heap for %d findings: %.0f B per finding, budget 160", after-before, findings, per)
	}
}
