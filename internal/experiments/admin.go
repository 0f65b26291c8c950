package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/analysis"
	"repro/internal/delegation"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/syndication"
	"repro/internal/wire"
)

// RunE5Syndication measures the Fig. 5 PAP hierarchy: traffic and
// propagation time for pushing one policy update through trees of varying
// shape, against the centralised pull alternative.
func RunE5Syndication() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E5 — Fig.5 policy syndication vs. central pull (5ms links, one update)",
		"fan-out", "depth", "nodes", "synd msgs", "synd propagation", "pull msgs", "pull worst-case", "synd bytes", "pull bytes")
	update := policy.NewPolicy("global-update").
		Combining(policy.FirstApplicable).
		When(policy.MatchResource(policy.AttrResourceType, policy.String("patient-record"))).
		Rule(policy.Deny("embargo").When(policy.MatchActionID("export")).Build()).
		Rule(policy.Permit("allow").Build()).
		Build()
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, shape := range []struct{ fanOut, depth int }{
		{2, 2}, {2, 4}, {4, 2}, {4, 3}, {8, 2},
	} {
		// Syndication tree.
		net := wire.NewNetwork(5*time.Millisecond, 3)
		root := syndication.BuildTree("pap", net, shape.fanOut, shape.depth)
		rep, err := root.Publish(context.Background(), update, at)
		if err != nil {
			return nil, err
		}
		// Central pull over a flat topology with the same leaf count.
		// Every leaf reaches the global PAP over a WAN link (25ms),
		// whereas syndication hops along 5ms intra-tier links — the
		// locality argument behind Fig. 5.
		pullNet := wire.NewNetwork(25*time.Millisecond, 3)
		flat := syndication.BuildTree("flat", pullNet, rep.Applied-1, 1)
		if _, err := flat.Store.Put(update); err != nil {
			return nil, err
		}
		pullRep, err := flat.PullAll(context.Background(), "global-update", at)
		if err != nil {
			return nil, err
		}
		table.AddRow(shape.fanOut, shape.depth, root.SubtreeSize(),
			rep.Messages, rep.Propagation,
			pullRep.Messages, pullRep.Propagation,
			rep.Bytes, pullRep.Bytes)
	}
	return table, nil
}

// conflictBase synthesises a policy base of n policies over shared roles,
// actions and resources, with a controlled fraction of deliberately
// conflicting permit/deny pairs.
func conflictBase(n int, conflictFraction float64, seed int64) []*policy.Policy {
	rng := rand.New(rand.NewSource(seed))
	policies := make([]*policy.Policy, 0, n)
	pairs := int(float64(n) * conflictFraction / 2)
	if pairs == 0 && conflictFraction > 0 && n >= 2 {
		pairs = 1
	}
	idx := 0
	mk := func(id string, effect policy.Effect, role, action, resource string, conditional bool) *policy.Policy {
		rb := policy.NewRule(id + "-rule")
		if effect == policy.EffectPermit {
			rb.Permits()
		} else {
			rb.Denies()
		}
		rb.When(policy.MatchRole(role), policy.MatchActionID(action), policy.MatchResourceID(resource))
		if conditional {
			rb.If(policy.Lit(policy.Boolean(true)))
		}
		return policy.NewPolicy(id).Combining(policy.FirstApplicable).Rule(rb.Build()).Build()
	}
	// Conflicting pairs on the same tuple; half of them conditional.
	for i := 0; i < pairs; i++ {
		role := fmt.Sprintf("role-%d", rng.Intn(10))
		res := fmt.Sprintf("shared-%d", i)
		conditional := i%2 == 1
		policies = append(policies,
			mk(fmt.Sprintf("p%d", idx), policy.EffectPermit, role, "read", res, false),
			mk(fmt.Sprintf("p%d", idx+1), policy.EffectDeny, role, "read", res, conditional))
		idx += 2
	}
	// Non-conflicting filler on disjoint resources.
	for idx < n {
		effect := policy.EffectPermit
		if rng.Intn(2) == 0 {
			effect = policy.EffectDeny
		}
		policies = append(policies, mk(fmt.Sprintf("p%d", idx), effect,
			fmt.Sprintf("role-%d", rng.Intn(10)), "read", fmt.Sprintf("solo-%d", idx), false))
		idx++
	}
	return policies
}

// RunE10Conflicts measures the §3.1 static conflict analysis: potential
// and actual conflicts the analyser finds across policy-base sizes, its
// wall time, and the outcome split under each resolution strategy.
func RunE10Conflicts() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E10 — §3.1 static conflict analysis (10% of policies in conflicting pairs)",
		"policies", "conflicts", "actual", "potential", "analysis ms",
		"deny-overrides→deny", "specificity→deny", "priority→deny")
	for _, n := range []int{10, 100, 500, 1000} {
		base := conflictBase(n, 0.10, 21)
		children := make([]policy.Evaluable, len(base))
		spec := make(map[analysis.Ref]int)
		rank := make(map[string]int, n)
		for i, p := range base {
			children[i] = p
			for _, rs := range analysis.RuleScopes(p) {
				spec[analysis.Ref{Owner: p.ID, PolicyID: p.ID, RuleID: rs.RuleID}] = rs.Specificity
			}
			rank[p.ID] = i % 7 // arbitrary but deterministic ranks
		}
		start := time.Now()
		rep := analysis.Analyze(analysis.Config{}, children...)
		elapsed := time.Since(start)

		strategies := []resolver{denyOverrides, bySpecificity(spec), byPriority(rank)}
		conflicts, actual := 0, 0
		denies := make([]int, len(strategies))
		for _, f := range rep.Findings {
			if f.Kind != analysis.KindConflict {
				continue
			}
			conflicts++
			if f.Actual {
				actual++
			}
			for i, resolve := range strategies {
				if resolve(f.Subject, f.Other) == policy.EffectDeny {
					denies[i]++
				}
			}
		}
		table.AddRow(n, conflicts, actual, conflicts-actual,
			float64(elapsed.Milliseconds()), denies[0], denies[1], denies[2])
	}
	return table, nil
}

// resolver is one of §3.1's conflict-resolution strategies: it picks the
// effect that wins a modality conflict between a permit and a deny claim.
type resolver func(permit, deny analysis.Ref) policy.Effect

// denyOverrides resolves by a fixed modality precedence, mirroring the
// deny-overrides combining algorithm.
func denyOverrides(_, _ analysis.Ref) policy.Effect { return policy.EffectDeny }

// bySpecificity favours the claim constraining more dimensions.
func bySpecificity(spec map[analysis.Ref]int) resolver {
	return func(permit, deny analysis.Ref) policy.Effect { return outranks(spec[permit], spec[deny]) }
}

// byPriority favours the claim of the higher-ranked policy; unranked
// policies rank 0.
func byPriority(rank map[string]int) resolver {
	return func(permit, deny analysis.Ref) policy.Effect {
		return outranks(rank[permit.PolicyID], rank[deny.PolicyID])
	}
}

// outranks lets the permit win only when it ranks strictly higher: ties
// fail closed.
func outranks(permit, deny int) policy.Effect {
	if permit > deny {
		return policy.EffectPermit
	}
	return policy.EffectDeny
}

// RunE12Delegation measures §3.2 delegation: validation latency against
// chain depth, and the reach an eager revocation cascade would need to
// cover (which the lazy validation makes implicit).
func RunE12Delegation() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E12 — §3.2 delegation chains: validation cost and revocation reach",
		"chain depth", "validate µs", "validations/s", "revocation reach", "post-revocation valid")
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, depth := range []int{1, 2, 4, 8, 16} {
		reg := delegation.NewRegistry()
		reg.AddRoot("vo-authority")
		var firstGrant *delegation.Grant
		delegator := "vo-authority"
		for i := 0; i < depth; i++ {
			delegate := fmt.Sprintf("authority-%d", i)
			g, err := reg.Delegate(delegator, delegate, delegation.UnrestrictedScope(), depth-i-1, time.Time{}, at)
			if err != nil {
				return nil, fmt.Errorf("E12 depth %d hop %d: %w", depth, i, err)
			}
			if firstGrant == nil {
				firstGrant = g
			}
			delegator = delegate
		}
		leaf := fmt.Sprintf("authority-%d", depth-1)

		const iters = 2000
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := reg.ValidateIssuer(leaf, "r", "a", at); err != nil {
				return nil, err
			}
		}
		perOp := time.Since(start) / iters

		reach, err := reg.Reachable(firstGrant.ID, at)
		if err != nil {
			return nil, err
		}
		if err := reg.Revoke(firstGrant.ID); err != nil {
			return nil, err
		}
		_, postErr := reg.ValidateIssuer(leaf, "r", "a", at)
		table.AddRow(depth, float64(perOp.Microseconds()),
			1/perOp.Seconds(), len(reach), postErr == nil)
	}
	return table, nil
}
