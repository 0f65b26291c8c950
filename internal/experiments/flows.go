package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/pip"
	"repro/internal/policy"
	"repro/internal/xacml"
)

// buildVO assembles a system with n domains. Domain i provisions one
// doctor ("doc-<i>") and one visitor, and publishes a policy permitting
// doctors (from any member domain) to read its patient records.
func buildVO(n int, seed int64) (*core.System, []*federation.Domain, error) {
	s, err := core.NewSystem(core.Config{Name: "vo", Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	domains := make([]*federation.Domain, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("domain-%d", i)
		d, err := s.AddDomain(name)
		if err != nil {
			return nil, nil, err
		}
		d.Directory.AddSubject(pip.Subject{ID: fmt.Sprintf("doc-%d", i), Domain: name, Roles: []string{"doctor"}})
		d.Directory.AddSubject(pip.Subject{ID: fmt.Sprintf("vis-%d", i), Domain: name, Roles: []string{"visitor"}})
		pol := policy.NewPolicy("records-"+name).
			Combining(policy.FirstApplicable).
			When(policy.MatchResource(policy.AttrResourceDomain, policy.String(name)),
				policy.MatchResource(policy.AttrResourceType, policy.String("patient-record"))).
			Rule(policy.Permit("doctors-read").
				When(policy.MatchRole("doctor"), policy.MatchActionID("read")).
				Build()).
			Rule(policy.Deny("default").Build()).
			Build()
		if err := s.AdmitPolicy(d, pol, s.At(0)); err != nil {
			return nil, nil, err
		}
		domains[i] = d
	}
	return s, domains, nil
}

func recordRequest(subject, subjectDomain, resourceDomain, resource string) *policy.Request {
	return policy.NewAccessRequest(subject, resource, "read").
		Add(policy.CategorySubject, policy.AttrSubjectDomain, policy.String(subjectDomain)).
		Add(policy.CategoryResource, policy.AttrResourceDomain, policy.String(resourceDomain)).
		Add(policy.CategoryResource, policy.AttrResourceType, policy.String("patient-record"))
}

// RunE1VirtualOrganisation measures the pull flow of Fig. 1 as the VO
// grows: per-request messages and virtual latency, split into home-domain
// and cross-domain accesses.
func RunE1VirtualOrganisation() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E1 — Fig.1 Virtual Organisation scaling (pull flow, 5ms links)",
		"domains", "requests", "local msgs/req", "cross msgs/req", "local p50", "cross p50", "permit rate")
	for _, n := range []int{2, 4, 8, 16, 32} {
		s, _, err := buildVO(n, 42)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(7))
		const requests = 200
		var localMsgs, crossMsgs []int
		var localLat, crossLat []time.Duration
		permits := 0
		for i := 0; i < requests; i++ {
			from := rng.Intn(n)
			to := rng.Intn(n)
			subject := fmt.Sprintf("doc-%d", from)
			req := recordRequest(subject, fmt.Sprintf("domain-%d", from), fmt.Sprintf("domain-%d", to), fmt.Sprintf("rec-%d", i))
			out := s.VO.Request(context.Background(), fmt.Sprintf("domain-%d", from), req, s.At(time.Duration(i)*time.Second))
			if out.Allowed {
				permits++
			}
			if from == to {
				localMsgs = append(localMsgs, out.Messages)
				localLat = append(localLat, out.Latency)
			} else {
				crossMsgs = append(crossMsgs, out.Messages)
				crossLat = append(crossLat, out.Latency)
			}
		}
		table.AddRow(n, requests,
			mean(localMsgs), mean(crossMsgs),
			metrics.Percentile(localLat, 50), metrics.Percentile(crossLat, 50),
			float64(permits)/float64(requests))
	}
	return table, nil
}

// mean returns the arithmetic mean of xs, or zero without samples.
func mean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// RunE2Push measures the capability-issuing flow of Fig. 2: one issuance
// amortised over k accesses.
func RunE2Push() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E2 — Fig.2 push (capability) flow: cost of k accesses with one capability",
		"k accesses", "total msgs", "msgs/access", "total latency", "bytes")
	s, _, err := buildVO(2, 42)
	if err != nil {
		return nil, err
	}
	req := recordRequest("doc-1", "domain-1", "domain-0", "rec-1")
	for _, k := range []int{1, 2, 5, 10, 20} {
		cap, issueOut := s.VO.RequestCapability(context.Background(), "domain-1", req, s.At(0))
		if cap == nil {
			return nil, fmt.Errorf("E2: capability refused: %w", issueOut.Err)
		}
		msgs, bytes := issueOut.Messages, issueOut.Bytes
		latency := issueOut.Latency
		for i := 0; i < k; i++ {
			out := s.VO.RequestWithCapability(context.Background(), "domain-1", req, cap, s.At(time.Duration(i)*time.Second))
			if !out.Allowed {
				return nil, fmt.Errorf("E2: access %d refused: %w", i, out.Err)
			}
			msgs += out.Messages
			bytes += out.Bytes
			latency += out.Latency
		}
		table.AddRow(k, msgs, float64(msgs)/float64(k), latency, bytes)
	}
	return table, nil
}

// RunE3PullVsPush contrasts the pull flow of Fig. 3 with the push flow of
// Fig. 2 at matched access counts, locating the crossover.
func RunE3PullVsPush() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E3 — Fig.3 pull vs Fig.2 push: total messages for k cross-domain accesses",
		"k accesses", "pull msgs", "push msgs", "pull bytes", "push bytes", "winner")
	s, _, err := buildVO(2, 42)
	if err != nil {
		return nil, err
	}
	req := recordRequest("doc-1", "domain-1", "domain-0", "rec-1")
	for _, k := range []int{1, 2, 5, 10, 20} {
		pullMsgs, pullBytes := 0, 0
		for i := 0; i < k; i++ {
			out := s.VO.Request(context.Background(), "domain-1", req, s.At(time.Duration(i)*time.Second))
			if !out.Allowed {
				return nil, fmt.Errorf("E3: pull access refused: %w", out.Err)
			}
			pullMsgs += out.Messages
			pullBytes += out.Bytes
		}
		cap, issueOut := s.VO.RequestCapability(context.Background(), "domain-1", req, s.At(0))
		if cap == nil {
			return nil, fmt.Errorf("E3: capability refused: %w", issueOut.Err)
		}
		pushMsgs, pushBytes := issueOut.Messages, issueOut.Bytes
		for i := 0; i < k; i++ {
			out := s.VO.RequestWithCapability(context.Background(), "domain-1", req, cap, s.At(time.Duration(i)*time.Second))
			if !out.Allowed {
				return nil, fmt.Errorf("E3: push access refused: %w", out.Err)
			}
			pushMsgs += out.Messages
			pushBytes += out.Bytes
		}
		winner := "push"
		if pullMsgs < pushMsgs {
			winner = "pull"
		} else if pullMsgs == pushMsgs {
			winner = "tie"
		}
		table.AddRow(k, pullMsgs, pushMsgs, pullBytes, pushBytes, winner)
	}
	return table, nil
}

// RunE4XACMLDataFlow measures the Fig. 4 exchange: context encoding sizes
// (XML vs JSON), codec round-trip cost, and PIP attribute round-trips per
// decision.
func RunE4XACMLDataFlow() (*metrics.Table, error) {
	table := metrics.NewTable(
		"E4 — Fig.4 XACML data flow: context sizes and PIP traffic",
		"request variant", "xml B", "json B", "codec µs/rt", "pip round-trips", "decision")
	s, _, err := buildVO(2, 42)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		req  *policy.Request
	}{
		{"minimal (home subject)", recordRequest("doc-0", "domain-0", "domain-0", "rec-1")},
		{"cross-domain subject", recordRequest("doc-1", "domain-1", "domain-0", "rec-1")},
		{"attribute-rich", recordRequest("doc-1", "domain-1", "domain-0", "rec-1").
			Add(policy.CategorySubject, "department", policy.String("cardiology")).
			Add(policy.CategorySubject, policy.AttrClearance, policy.Integer(3)).
			Add(policy.CategoryEnvironment, "purpose", policy.String("treatment")).
			Add(policy.CategoryEnvironment, "emergency", policy.Boolean(false))},
	}
	for _, v := range variants {
		xmlData, err := xacml.MarshalRequestXML(v.req)
		if err != nil {
			return nil, err
		}
		jsonData, err := xacml.MarshalRequestJSON(v.req)
		if err != nil {
			return nil, err
		}
		// Codec round-trip wall time.
		const iters = 2000
		start := time.Now()
		for i := 0; i < iters; i++ {
			data, err := xacml.MarshalRequestXML(v.req)
			if err != nil {
				return nil, err
			}
			if _, err := xacml.UnmarshalRequestXML(data); err != nil {
				return nil, err
			}
		}
		perRT := time.Since(start) / iters

		// The federated decision, counting IdP round-trips on the wire.
		s.Net.ResetStats()
		out := s.VO.Request(context.Background(), "domain-1", v.req, s.At(0))
		pipRoundTrips := (out.Messages - 4) / 2 // minus client<->pep, pep<->pdp
		table.AddRow(v.name, len(xmlData), len(jsonData),
			float64(perRT.Microseconds()), pipRoundTrips, out.Decision.String())
	}
	return table, nil
}
