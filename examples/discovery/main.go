// PDP discovery with signed decisions (Section 3.2, "Location of Policy
// Decision Points"): an enforcement point that accepts any decision signed
// by its administrative authority, discovering decision points at runtime
// instead of binding to one statically.
//
// The scenario: three decision points serve one authority. The first
// crashes mid-run (the client fails over); a rogue decision point backed
// by the wrong certificate authority then registers itself first in the
// registry and answers every query with a permit — which the client
// rejects on signature verification, every time.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/discovery"
	"repro/internal/pdp"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/wire"
)

type seededReader struct{ r *rand.Rand }

func (s *seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.r.Intn(256))
	}
	return len(p), nil
}

func main() {
	epoch := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	later := epoch.AddDate(1, 0, 0)
	entropy := &seededReader{r: rand.New(rand.NewSource(7))}

	net := wire.NewNetwork(5*time.Millisecond, 7)
	net.Register("pep.ward", func(_ context.Context, _ *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
		return env, nil
	})

	// The administrative authority and its decision points.
	authority, err := pki.NewRootAuthority("authority.med", entropy, epoch, later)
	if err != nil {
		log.Fatal(err)
	}
	base := policy.NewPolicySet("base").Combining(policy.DenyUnlessPermit).
		Add(policy.NewPolicy("doctors").
			Combining(policy.DenyUnlessPermit).
			Rule(policy.Permit("doctors-read").
				When(policy.MatchRole("doctor"), policy.MatchActionID("read")).
				Build()).
			Build()).
		Build()
	reg := discovery.NewRegistry()
	for i := 1; i <= 3; i++ {
		node := fmt.Sprintf("pdp.med.%d", i)
		key, err := pki.GenerateKeyPair(entropy)
		if err != nil {
			log.Fatal(err)
		}
		engine := pdp.New(node)
		if err := engine.SetRoot(base); err != nil {
			log.Fatal(err)
		}
		discovery.ServeSigned(net, node, engine, key, node, 15*time.Minute)
		reg.Register(discovery.Entry{
			Node: node, Authority: "authority.med",
			Cert: authority.Issue(node, key.Public, epoch, later, false),
		})
	}

	client := discovery.NewClient(net, reg, authority.Certificate(), "authority.med", "pep.ward",
		discovery.WithRejectHook(func(node string, err error) {
			fmt.Printf("  ! rejected response from %s: %v\n", node, err)
		}))

	ask := func(label, subject, role string) {
		req := policy.NewAccessRequest(subject, "rec-7", "read")
		if role != "" {
			req.Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String(role))
		}
		res := policy.Decide(context.Background(), client, req, epoch.Add(time.Hour))
		fmt.Printf("%-34s -> %-13s (decided by %s)\n", label, res.Decision, orDash(res.By))
	}

	fmt.Println("— all three decision points up —")
	ask("doctor alice reads rec-7", "alice", "doctor")
	ask("visitor mallory reads rec-7", "mallory", "")

	fmt.Println("\n— pdp.med.1 crashes: discovery fails over —")
	net.SetNodeDown("pdp.med.1", true)
	ask("doctor alice reads rec-7", "alice", "doctor")

	fmt.Println("\n— a rogue PDP (untrusted CA, permits everyone) registers first —")
	rogueCA, err := pki.NewRootAuthority("authority.evil", entropy, epoch, later)
	if err != nil {
		log.Fatal(err)
	}
	rogueKey, err := pki.GenerateKeyPair(entropy)
	if err != nil {
		log.Fatal(err)
	}
	open := pdp.New("pdp.rogue")
	if err := open.SetRoot(policy.NewPolicySet("open").Combining(policy.PermitUnlessDeny).Build()); err != nil {
		log.Fatal(err)
	}
	discovery.ServeSigned(net, "pdp.rogue", open, rogueKey, "pdp.rogue", 15*time.Minute)
	rogue := discovery.Entry{
		Node: "pdp.rogue", Authority: "authority.med",
		Cert: rogueCA.Issue("pdp.rogue", rogueKey.Public, epoch, later, false),
	}
	fresh := discovery.NewRegistry()
	fresh.Register(rogue)
	for _, e := range reg.Lookup("authority.med") {
		fresh.Register(e)
	}
	client = discovery.NewClient(net, fresh, authority.Certificate(), "authority.med", "pep.ward",
		discovery.WithRejectHook(func(node string, err error) {
			fmt.Printf("  ! rejected response from %s\n", node)
		}))
	ask("visitor mallory reads rec-7", "mallory", "")

	st := client.Stats()
	fmt.Printf("\nclient stats: %d queries, %d node round-trips, %d rejected responses\n",
		st.Queries, st.NodesTried, st.Rejected)
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}
