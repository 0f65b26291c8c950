package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/discovery"
	"repro/internal/metrics"
	"repro/internal/pdp"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/wire"
)

// RunE16Discovery measures the signed-decision PDP discovery of Section
// 3.2 ("Location of Policy Decision Points"): a PEP that accepts any
// decision signed by its administrative authority, across a registry of 5
// decision points, under increasing crash counts and with a rogue decision
// point (untrusted CA, permits everything) squatting first in the
// registry. Reported per configuration: verified-decision availability,
// node round-trips per query, and rejected (attack) responses.
func RunE16Discovery() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E16 — §3.2 PDP discovery with signed decisions (5 honest nodes, 200 queries)",
		"down", "rogue first", "available", "tried/query", "rejected", "honest permits", "rogue permits accepted")

	for _, cfg := range []struct {
		down  int
		rogue bool
	}{
		{0, false}, {1, false}, {2, false}, {4, false}, {5, false},
		{0, true}, {4, true},
	} {
		row, err := runDiscoveryConfig(cfg.down, cfg.rogue)
		if err != nil {
			return nil, err
		}
		table.AddRow(cfg.down, cfg.rogue,
			fmt.Sprintf("%.1f%%", row.availability*100),
			fmt.Sprintf("%.2f", row.triedPerQuery),
			row.rejected, row.honestPermits, row.roguePermits)
	}
	return table, nil
}

type discoveryRow struct {
	availability  float64
	triedPerQuery float64
	rejected      int64
	honestPermits int
	roguePermits  int
}

func runDiscoveryConfig(down int, rogue bool) (*discoveryRow, error) {
	const (
		honestNodes = 5
		queries     = 200
	)
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	later := epoch.AddDate(1, 0, 0)
	rng := rand.New(rand.NewSource(16))
	entropy := &seededReader{r: rng}

	net := wire.NewNetwork(5*time.Millisecond, 16)
	net.Register("pep.e16", func(_ context.Context, _ *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
		return env, nil
	})
	root, err := pki.NewRootAuthority("authority.e16", entropy, epoch, later)
	if err != nil {
		return nil, err
	}
	reg := discovery.NewRegistry()

	base := policy.NewPolicySet("base").Combining(policy.DenyUnlessPermit).
		Add(policy.NewPolicy("doctors").
			Combining(policy.DenyUnlessPermit).
			Rule(policy.Permit("doctors-read").
				When(policy.MatchRole("doctor"), policy.MatchActionID("read")).
				Build()).
			Build()).
		Build()

	if rogue {
		// The rogue chains to a different CA and permits everything.
		evilCA, err := pki.NewRootAuthority("authority.evil", entropy, epoch, later)
		if err != nil {
			return nil, err
		}
		evilKey, err := pki.GenerateKeyPair(entropy)
		if err != nil {
			return nil, err
		}
		open := pdp.New("pdp.rogue")
		if err := open.SetRoot(policy.NewPolicySet("open").Combining(policy.PermitUnlessDeny).Build()); err != nil {
			return nil, err
		}
		discovery.ServeSigned(net, "pdp.rogue", open, evilKey, "pdp.rogue", 15*time.Minute)
		reg.Register(discovery.Entry{
			Node: "pdp.rogue", Authority: "authority.e16",
			Cert: evilCA.Issue("pdp.rogue", evilKey.Public, epoch, later, false),
		})
	}
	for i := 0; i < honestNodes; i++ {
		node := fmt.Sprintf("pdp.e16.%d", i)
		key, err := pki.GenerateKeyPair(entropy)
		if err != nil {
			return nil, err
		}
		engine := pdp.New(node)
		if err := engine.SetRoot(base); err != nil {
			return nil, err
		}
		discovery.ServeSigned(net, node, engine, key, node, 15*time.Minute)
		reg.Register(discovery.Entry{
			Node: node, Authority: "authority.e16",
			Cert: root.Issue(node, key.Public, epoch, later, false),
		})
		if i < down {
			net.SetNodeDown(node, true)
		}
	}

	client := discovery.NewClient(net, reg, root.Certificate(), "authority.e16", "pep.e16")
	row := &discoveryRow{}
	verified := 0
	for q := 0; q < queries; q++ {
		subject := fmt.Sprintf("u-%d", q)
		req := policy.NewAccessRequest(subject, "rec-7", "read")
		isDoctor := q%2 == 0
		if isDoctor {
			req.Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String("doctor"))
		}
		res := policy.Decide(context.Background(), client, req, epoch.Add(time.Duration(q)*time.Second))
		switch res.Decision {
		case policy.DecisionPermit:
			verified++
			if res.By == "pdp.rogue" {
				row.roguePermits++
			} else if isDoctor {
				row.honestPermits++
			} else {
				return nil, fmt.Errorf("E16: honest node permitted a non-doctor")
			}
		case policy.DecisionDeny:
			verified++
		}
	}
	st := client.Stats()
	row.availability = float64(verified) / float64(queries)
	row.triedPerQuery = float64(st.NodesTried) / float64(st.Queries)
	row.rejected = st.Rejected
	return row, nil
}

// seededReader adapts a seeded rand to io.Reader for deterministic keys.
type seededReader struct{ r *rand.Rand }

// Read implements io.Reader.
func (s *seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.r.Intn(256))
	}
	return len(p), nil
}
