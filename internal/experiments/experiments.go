// Package experiments is the reproduction harness: one experiment per
// figure of the paper plus one per quantified claim of its challenge
// analysis (All is the full index). Each experiment is deterministic — all
// randomness is seeded and network latency is virtual — so the tables
// cmd/experiments prints regenerate exactly.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
)

// Experiment is one reproducible experiment.
type Experiment struct {
	// ID is the experiment identifier (E1..E14).
	ID string
	// Title describes the experiment and its source in the paper.
	Title string
	// Run executes the experiment and renders its table.
	Run func() (*metrics.Table, error)
}

// All returns every experiment in ID order.
func All() []Experiment {
	exps := []Experiment{
		{ID: "E1", Title: "Fig. 1 — Virtual Organisation: cross-domain cost vs. number of domains", Run: RunE1VirtualOrganisation},
		{ID: "E2", Title: "Fig. 2 — capability-issuing (push) flow: amortisation over capability reuse", Run: RunE2Push},
		{ID: "E3", Title: "Fig. 3 — policy-issuing (pull) flow and crossover vs. push", Run: RunE3PullVsPush},
		{ID: "E4", Title: "Fig. 4 — XACML data flow: context sizes, codec cost, PIP round-trips", Run: RunE4XACMLDataFlow},
		{ID: "E5", Title: "Fig. 5 — PAP syndication hierarchy vs. central pull", Run: RunE5Syndication},
		{ID: "E6", Title: "§2.3 — combining-algorithm decision matrix", Run: RunE6Combining},
		{ID: "E7", Title: "§3.2 — decision caching: message reduction vs. staleness", Run: RunE7Caching},
		{ID: "E8", Title: "§3.2 — message-security overhead (plain / signed / signed+encrypted)", Run: RunE8SecurityOverhead},
		{ID: "E9", Title: "title+§3.2 — dependable PDP ensembles under crash injection", Run: RunE9DependablePDP},
		{ID: "E10", Title: "§3.1 — static conflict detection and resolution strategies", Run: RunE10Conflicts},
		{ID: "E11", Title: "§3.1 — trust negotiation: eager vs. parsimonious", Run: RunE11Negotiation},
		{ID: "E12", Title: "§3.2 — delegation chains: validation cost and revocation reach", Run: RunE12Delegation},
		{ID: "E14", Title: "§3.1 — Chinese Wall / separation-of-duty enforcement", Run: RunE14ChineseWall},
		{ID: "E15", Title: "§3.1 — policy heterogeneity: dialect translation cost and representation sizes", Run: RunE15Heterogeneity},
		{ID: "E16", Title: "§3.2 — PDP discovery with signed decisions under crashes and rogue nodes", Run: RunE16Discovery},
		{ID: "E17", Title: "§3 — horizontal PDP scaling: sharded cluster throughput and batch amortisation", Run: RunE17Cluster},
		{ID: "E18", Title: "§3.2 — live administration: policy churn, full rebuild vs incremental delta", Run: RunE18Churn},
		{ID: "E19", Title: "§3.3 — durable policy base: WAL group commit and crash recovery", Run: RunE19Durability},
		{ID: "E20", Title: "§3 — decision hot-path contention: lock-free engine vs serialized baseline", Run: RunE20Contention},
		{ID: "E21", Title: "§3.2 — deadlines and cancellation: bounded tail latency under a slow shard", Run: RunE21Deadlines},
		{ID: "E22", Title: "§3.2 — decision-tracing overhead at 0%/1%/100% head sampling", Run: RunE22TracingOverhead},
		{ID: "E23", Title: "§3.1 — incremental static analysis: full vs delta re-analysis, gated admin-write p99", Run: RunE23Analysis},
		{ID: "E24", Title: "§3 — compiled decision program vs. interpreter on the decision miss path", Run: RunE24Compile},
	}
	sort.Slice(exps, func(i, j int) bool {
		// Numeric ID order (E2 < E10).
		var a, b int
		_, _ = fmt.Sscanf(exps[i].ID, "E%d", &a)
		_, _ = fmt.Sscanf(exps[j].ID, "E%d", &b)
		return a < b
	})
	return exps
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
