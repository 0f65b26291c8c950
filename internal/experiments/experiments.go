// Package experiments is the reproduction harness: one experiment per
// figure of the paper plus one per quantified claim of its challenge
// analysis (All is the full index). Each experiment is deterministic — all
// randomness is seeded and network latency is virtual — so the tables
// cmd/experiments prints regenerate exactly.
package experiments

import "repro/internal/metrics"

// Experiment is one reproducible experiment.
type Experiment struct {
	// ID is the experiment identifier (E1..E16; E13 is retired and IDs
	// are not reused).
	ID string
	// Title describes the experiment and its source in the paper.
	Title string
	// Run executes the experiment and renders its table.
	Run func() (*metrics.Table, error)
}

// All returns every experiment in ID order.
func All() []Experiment {
	return []Experiment{
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
	}
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
