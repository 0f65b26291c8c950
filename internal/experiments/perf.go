package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/pdp"
	"repro/internal/pep"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xacml"
)

// RunE6Combining reproduces the combining-algorithm semantics of §2.3 as a
// decision matrix: the combined decision for each algorithm over
// representative child-decision mixes.
func RunE6Combining() (*metrics.Table, error) {
	P, D, NA, IN := policy.DecisionPermit, policy.DecisionDeny, policy.DecisionNotApplicable, policy.DecisionIndeterminate
	mixes := []struct {
		name     string
		children []policy.Decision
	}{
		{"P,D", []policy.Decision{P, D}},
		{"P,P", []policy.Decision{P, P}},
		{"D,D", []policy.Decision{D, D}},
		{"NA,P", []policy.Decision{NA, P}},
		{"NA,D", []policy.Decision{NA, D}},
		{"IN,P", []policy.Decision{IN, P}},
		{"IN,D", []policy.Decision{IN, D}},
		{"NA,NA", []policy.Decision{NA, NA}},
		{"(empty)", nil},
	}
	header := []string{"children"}
	for _, alg := range policy.Algorithms() {
		if alg == policy.OnlyOneApplicable {
			continue // policy-combining only; exercised in its own tests
		}
		header = append(header, alg.String())
	}
	table := metrics.NewTable("E6 — §2.3 combining-algorithm decision matrix", header...)
	for _, mix := range mixes {
		row := make([]any, 0, len(header))
		row = append(row, mix.name)
		for _, alg := range policy.Algorithms() {
			if alg == policy.OnlyOneApplicable {
				continue
			}
			p := combinedPolicy(alg, mix.children)
			res := p.Evaluate(policy.NewContext(policy.NewRequest()))
			row = append(row, res.Decision.String())
		}
		table.AddRow(row...)
	}
	return table, nil
}

func combinedPolicy(alg policy.Algorithm, children []policy.Decision) *policy.Policy {
	b := policy.NewPolicy("m").Combining(alg)
	for i, d := range children {
		id := fmt.Sprintf("r%d", i)
		switch d {
		case policy.DecisionPermit:
			b.Rule(policy.Permit(id).Build())
		case policy.DecisionDeny:
			b.Rule(policy.Deny(id).Build())
		case policy.DecisionNotApplicable:
			b.Rule(policy.Permit(id).If(policy.Lit(policy.Boolean(false))).Build())
		default:
			b.Rule(policy.Permit(id).If(policy.Call("no-such-fn")).Build())
		}
	}
	return b.Build()
}

// RunE7Caching measures the §3.2 caching trade-off: PEP-side decision
// caching slashes PEP→PDP traffic at the price of a staleness window after
// revocation. A Zipf-skewed workload arrives over 120 virtual seconds; at
// t=60s every permit is revoked; cached permits keep leaking until their
// TTL expires.
func RunE7Caching() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E7 — §3.2 decision caching: traffic reduction vs. staleness (Zipf workload, revocation at t=60s)",
		"cache TTL", "requests", "pdp queries", "reduction", "hit rate", "stale permits", "stale window p100")
	for _, ttl := range []time.Duration{0, time.Second, 10 * time.Second, 60 * time.Second} {
		gen := workload.NewGenerator(workload.Config{
			Users: 50, Resources: 200, Roles: 5,
			MeanInterarrival: 20 * time.Millisecond, Seed: 11,
		})
		engine := pdp.New("pdp", pdp.WithResolver(gen.Directory("idp")))
		if err := engine.SetRoot(gen.PolicyBase("base")); err != nil {
			return nil, err
		}
		// The PEP's decision cache is a front cache under the enforcer.
		var provider policy.Decider = engine
		if ttl > 0 {
			provider = resilience.NewFrontCache(engine, ttl, &resilience.Policy{}, 4096)
		}
		enforcer := pep.NewEnforcer("pep", provider)

		epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		now := epoch
		revokeAt := epoch.Add(60 * time.Second)
		end := epoch.Add(120 * time.Second)
		revoked := false
		requests := 0
		stalePermits := 0
		var lastStale time.Duration
		for now.Before(end) {
			if !revoked && !now.Before(revokeAt) {
				// Revocation: the policy base flips to deny-all, the
				// authoritative PDP sees it immediately; only PEP
				// caches keep permitting.
				if err := engine.SetRoot(policy.NewPolicySet("lockdown").
					Combining(policy.DenyUnlessPermit).Build()); err != nil {
					return nil, err
				}
				revoked = true
			}
			req := gen.NextRequest()
			out := enforcer.EnforceAt(context.Background(), req, now)
			requests++
			if revoked && out.Allowed {
				stalePermits++
				lastStale = now.Sub(revokeAt)
			}
			now = now.Add(gen.NextInterarrival())
		}
		// Every query the cache passes on is one engine evaluation.
		queries := engine.Stats().Evaluations
		hits := int64(requests) - queries
		reduction := 1.0
		if requests > 0 {
			reduction = float64(requests) / float64(queries)
		}
		ttlName := ttl.String()
		if ttl == 0 {
			ttlName = "off"
		}
		table.AddRow(ttlName, requests, queries,
			reduction, float64(hits)/float64(requests), stalePermits, lastStale)
	}
	return table, nil
}

// RunE8SecurityOverhead measures the §3.2 (and [40]) message-security
// cost: wire size and protect+verify time for each protection level over a
// typical authorisation decision query.
func RunE8SecurityOverhead() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E8 — §3.2 message security overhead (authorisation decision query body)",
		"protection", "wire bytes", "size overhead", "protect+verify µs", "time overhead")
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	later := epoch.AddDate(1, 0, 0)
	entropy := newSeqEntropy(9)
	root, err := pki.NewRootAuthority("ca", entropy, epoch, later)
	if err != nil {
		return nil, err
	}
	trust := pki.NewTrustStore()
	trust.AddRoot(root.Certificate())
	aliceKey, err := pki.GenerateKeyPair(entropy)
	if err != nil {
		return nil, err
	}
	bobKey, err := pki.GenerateKeyPair(entropy)
	if err != nil {
		return nil, err
	}
	aliceCert := root.Issue("pep", aliceKey.Public, epoch, later, false)
	bobCert := root.Issue("pdp", bobKey.Public, epoch, later, false)
	alice := wire.NewSecurity(aliceKey, aliceCert, trust)
	bob := wire.NewSecurity(bobKey, bobCert, trust)
	alice.AddPeer(bobCert)
	bob.AddPeer(aliceCert)
	if err := alice.EstablishSharedKey("pdp"); err != nil {
		return nil, err
	}
	if err := bob.EstablishSharedKey("pep"); err != nil {
		return nil, err
	}

	body, err := xacml.MarshalRequestXML(recordRequest("doc-1", "domain-1", "domain-0", "rec-1"))
	if err != nil {
		return nil, err
	}
	var baseSize int
	var baseTime time.Duration
	for _, level := range []wire.Protection{wire.Plain, wire.Signed, wire.SignedEncrypted} {
		const iters = 300
		var size int
		start := time.Now()
		for i := 0; i < iters; i++ {
			env := &wire.Envelope{
				MessageID: fmt.Sprintf("m-%d-%d", level, i),
				From:      "pep", To: "pdp", Action: "pdp:decide",
				Timestamp: epoch, Body: append([]byte(nil), body...),
			}
			if err := alice.Protect(env, level); err != nil {
				return nil, err
			}
			size = env.WireSize()
			if err := bob.Verify(env, level, epoch); err != nil {
				return nil, err
			}
		}
		perOp := time.Since(start) / iters
		if level == wire.Plain {
			baseSize, baseTime = size, perOp
		}
		table.AddRow(level.String(), size,
			fmt.Sprintf("%.2fx", float64(size)/float64(baseSize)),
			float64(perOp.Microseconds()),
			fmt.Sprintf("%.1fx", float64(perOp)/float64(baseTime)))
	}
	return table, nil
}

// seqEntropy is a deterministic entropy source local to the experiments.
type seqEntropy struct{ state uint64 }

func newSeqEntropy(seed uint64) *seqEntropy { return &seqEntropy{state: seed} }

func (s *seqEntropy) Read(p []byte) (int, error) {
	for i := range p {
		// xorshift64
		s.state ^= s.state << 13
		s.state ^= s.state >> 7
		s.state ^= s.state << 17
		p[i] = byte(s.state)
	}
	return len(p), nil
}
