package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ha"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/negotiation"
	"repro/internal/pdp"
	"repro/internal/policy"
)

// crashSchedule precomputes deterministic up/down windows per replica with
// the given downtime fraction: within every cycle, each replica is down
// for a staggered slice of the cycle.
type crashSchedule struct {
	replicas int
	cycle    time.Duration
	downFrac float64
}

// downAt reports whether replica i is down at offset t.
func (cs crashSchedule) downAt(i int, t time.Duration) bool {
	phase := time.Duration(float64(cs.cycle) * float64(i) / float64(cs.replicas))
	pos := (t + phase) % cs.cycle
	return pos < time.Duration(float64(cs.cycle)*cs.downFrac)
}

// RunE9DependablePDP measures the headline dependability claim: the
// availability of authorisation under replica crashes, for a single PDP,
// failover chains and quorum ensembles, at 10% and 30% per-replica
// downtime.
func RunE9DependablePDP() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E9 — dependable PDP ensembles under staggered crash injection (1000 requests / 1000s)",
		"configuration", "downtime/replica", "availability", "replica queries/req", "failovers")
	configs := []struct {
		name     string
		replicas int
		strategy ha.Strategy
	}{
		{"single", 1, ha.Failover},
		{"failover-2", 2, ha.Failover},
		{"failover-3", 3, ha.Failover},
		{"quorum-3", 3, ha.Quorum},
		{"quorum-5", 5, ha.Quorum},
	}
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	root := policy.NewPolicySet("root").Combining(policy.PermitUnlessDeny).Build()

	for _, downFrac := range []float64{0.10, 0.30} {
		for _, cfg := range configs {
			replicas := make([]*ha.Failable, cfg.replicas)
			for i := range replicas {
				engine := pdp.New(fmt.Sprintf("%s-r%d", cfg.name, i))
				if err := engine.SetRoot(root); err != nil {
					return nil, err
				}
				replicas[i] = ha.NewFailable(engine.Name(), engine)
			}
			ens := ha.NewEnsemble(cfg.name, cfg.strategy, replicas...)
			schedule := crashSchedule{replicas: cfg.replicas, cycle: 100 * time.Second, downFrac: downFrac}

			const requests = 1000
			available := 0
			for i := 0; i < requests; i++ {
				t := time.Duration(i) * time.Second
				for r := range replicas {
					replicas[r].SetDown(schedule.downAt(r, t))
				}
				req := policy.NewAccessRequest(fmt.Sprintf("u%d", i), "res", "read")
				if res := policy.Decide(context.Background(), ens, req, epoch.Add(t)); res.Decision == policy.DecisionPermit {
					available++
				}
			}
			st := ens.Stats()
			table.AddRow(cfg.name,
				fmt.Sprintf("%.0f%%", downFrac*100),
				fmt.Sprintf("%.1f%%", 100*float64(available)/float64(requests)),
				float64(st.ReplicaQueries)/float64(st.Requests),
				st.Failovers)
		}
	}
	return table, nil
}

// RunE11Negotiation measures §3.1 trust negotiation: success, rounds and
// credentials disclosed for eager vs. parsimonious strategies across guard
// chain depths, including wallets padded with irrelevant credentials that
// eager negotiation leaks.
func RunE11Negotiation() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E11 — §3.1 trust negotiation: eager vs. parsimonious",
		"guard depth", "strategy", "success", "rounds", "client disclosed", "server disclosed", "messages")
	for _, depth := range []int{1, 2, 4, 8} {
		for _, strat := range []negotiation.Strategy{negotiation.Eager, negotiation.Parsimonious} {
			client, server := chainScenario(depth, 5)
			tr, err := negotiation.Negotiate(client, server, "resource", strat)
			success := err == nil && tr.Succeeded
			if tr == nil {
				return nil, err
			}
			table.AddRow(depth, strat.String(), success, tr.Rounds,
				tr.ClientDisclosed, tr.ServerDisclosed, tr.Messages)
		}
	}
	return table, nil
}

// chainScenario builds an alternating guard chain of the given depth plus
// `padding` freely disclosable but irrelevant credentials on each side.
func chainScenario(depth, padding int) (*negotiation.Party, *negotiation.Party) {
	client := negotiation.NewParty("client")
	server := negotiation.NewParty("server")
	client.AddCredential(negotiation.Credential{Name: "c0"})
	prev := "c0"
	for i := 0; i < depth; i++ {
		sName := fmt.Sprintf("s%d", i)
		server.AddCredential(negotiation.Credential{
			Name:       sName,
			Disclosure: negotiation.Requirement{{prev}},
		})
		cName := fmt.Sprintf("c%d", i+1)
		client.AddCredential(negotiation.Credential{
			Name:       cName,
			Disclosure: negotiation.Requirement{{sName}},
		})
		prev = cName
	}
	for i := 0; i < padding; i++ {
		client.AddCredential(negotiation.Credential{Name: fmt.Sprintf("client-pad-%d", i)})
		server.AddCredential(negotiation.Credential{Name: fmt.Sprintf("server-pad-%d", i)})
	}
	server.SetAccessPolicy("resource", negotiation.Requirement{{prev}})
	return client, server
}

// RunE14ChineseWall measures the §3.1 Brewer–Nash enforcement: consultants
// making random dataset accesses across conflict-of-interest classes; the
// wall must block exactly the accesses that follow a prior access to a
// competing dataset, and an unwalled baseline blocks nothing.
func RunE14ChineseWall() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E14 — §3.1 Chinese Wall enforcement (3 COI classes x 3 datasets, 40 consultants)",
		"accesses", "walled blocked", "walled violations", "baseline violations", "blocked share")
	rng := rand.New(rand.NewSource(31))
	classes := []string{"banking", "petroleum", "airlines"}

	for _, accesses := range []int{100, 500, 2000} {
		wall := models.NewChineseWall(nil)
		datasets := make([]string, 0, 9)
		for _, class := range classes {
			for i := 0; i < 3; i++ {
				ds := fmt.Sprintf("%s-%d", class, i)
				wall.DeclareDataset(ds, class)
				datasets = append(datasets, ds)
			}
		}
		// The unwalled baseline tracks what consultants would have seen.
		baselineSeen := make(map[string]map[string]bool)

		blocked := 0
		walledViolations := 0
		baselineViolations := 0
		for i := 0; i < accesses; i++ {
			subject := fmt.Sprintf("consultant-%d", rng.Intn(40))
			ds := datasets[rng.Intn(len(datasets))]
			class := ds[:len(ds)-2]

			// Walled system.
			if err := wall.Access(subject, ds); err != nil {
				blocked++
			} else {
				// Verify the invariant: an allowed access never joins
				// two datasets of one class for one subject.
				count := 0
				for _, other := range datasets {
					if other[:len(other)-2] == class && wall.History().Accessed(subject, other) {
						count++
					}
				}
				if count > 1 {
					walledViolations++
				}
			}

			// Baseline without a wall: every access proceeds.
			seen := baselineSeen[subject]
			if seen == nil {
				seen = make(map[string]bool)
				baselineSeen[subject] = seen
			}
			for other := range seen {
				if other[:len(other)-2] == class && other != ds {
					baselineViolations++
					break
				}
			}
			seen[ds] = true
		}
		table.AddRow(accesses, blocked, walledViolations, baselineViolations,
			fmt.Sprintf("%.1f%%", 100*float64(blocked)/float64(accesses)))
	}
	return table, nil
}
