package main

// inputs.go and ladder.go are the only files that import the program's
// packages. This one turns generated accesses into the bytes the daemon is
// fed (policy base, subject directory, pre-encoded envelopes, admin bodies)
// and turns reply bytes back into decisions; it uses
//
//	workload.UserID, ResourceID, RoleID, ResourcePolicy
//	policy.NewAccessRequest, Request.Add, the policy/rule builders
//	xacml.MarshalJSON, MarshalRequestXML, UnmarshalResponseXML
//	wire.Envelope.EncodeXML, wire.DecodeXML, wire.EncodeBodies, DecodeBodies
//
// and nothing else, so a change to those names is the whole of what a
// program API change can break in the timed path.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/policy"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xacml"
)

// access is one drawn access request; the oracle needs nothing else.
type access struct {
	user, resource int
	write          bool
}

func (a access) action() string {
	if a.write {
		return "write"
	}
	return "read"
}

// call is one pre-encoded envelope and the oracle's answer for each
// request in it.
type call struct {
	body   []byte
	expect []decision
}

// inputs is everything one run feeds the daemon, generated from the seed
// before the daemon starts.
type inputs struct {
	policy   []byte   // seed policy set, XACML JSON (pdpd -policy)
	subjects []byte   // subject directory (pdpd -subjects)
	warm     []call   // posted once, in order, during set-up
	calls    []call   // the timed stream
	cyclic   bool     // the timed stream may wrap (warm population)
	writes   [][]byte // admin bodies, posted round-robin (churn.mixed)
}

// envelopeTime stamps every envelope: inputs depend on the seed alone.
var envelopeTime = time.Unix(1700000000, 0).UTC()

// streamRand seeds the timed request stream; the ladder replays the same
// stream's head.
func streamRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// drawAccesses draws n accesses of the workload's population: uniform
// user, Zipf-popular resource, 80 % reads.
func drawAccesses(rng *rand.Rand, w spec, n int) []access {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(w.resources-1))
	out := make([]access, n)
	for i := range out {
		out[i] = access{
			user:     rng.Intn(w.users),
			resource: int(zipf.Uint64()),
			write:    rng.Float64() >= readFraction,
		}
	}
	return out
}

// everyKey lists each cache key of a warm population once.
func everyKey(w spec) []access {
	out := make([]access, 0, w.users*w.resources*2)
	for u := 0; u < w.users; u++ {
		for i := 0; i < w.resources; i++ {
			out = append(out, access{u, i, false}, access{u, i, true})
		}
	}
	return out
}

// buildRequest renders an access as the program's request type. Warm
// requests carry the subject's role; cold ones leave roles and clearance
// to the daemon's PIP.
func buildRequest(a access, cold bool) *policy.Request {
	req := policy.NewAccessRequest(workload.UserID(a.user), workload.ResourceID(a.resource), a.action())
	if !cold {
		req.Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String(workload.RoleID(a.user%roles)))
	}
	return req
}

// vetoPolicy is the k-th organisation-wide meta-policy: no target, one
// Deny rule conditioned on the PIP-resolved clearance. The condition keeps
// it off the compiled fast path, so every miss pays the interpreter for
// each of them.
func vetoPolicy(k int) *policy.Policy {
	return policy.NewPolicy(fmt.Sprintf("veto-%02d", k)).
		Combining(policy.DenyOverrides).
		Rule(policy.Deny("low-clearance").
			If(policy.Call(policy.FnLessThan,
				policy.SubjectAttr(policy.AttrClearance),
				policy.Lit(policy.Integer(int64(k+1))))).
			Build()).
		Build()
}

// policyBase builds the workload's root: one workload.ResourcePolicy per
// resource plus, for the cold workloads, the veto tier.
func policyBase(w spec) *policy.PolicySet {
	b := policy.NewPolicySet("bench-root").Combining(policy.DenyOverrides)
	for i := 0; i < w.resources; i++ {
		b.Add(workload.ResourcePolicy(i, roles))
	}
	if w.veto {
		for k := 0; k < vetoPolicies; k++ {
			b.Add(vetoPolicy(k))
		}
	}
	return b.Build()
}

// subject is one entry of the pdpd -subjects file.
type subject struct {
	ID        string   `json:"id"`
	Roles     []string `json:"roles"`
	Clearance int64    `json:"clearance"`
}

// subjectOf gives user u its role and clearance: the closed form the
// oracle mirrors.
func subjectOf(u int) subject {
	s := subject{ID: workload.UserID(u), Roles: []string{workload.RoleID(u % roles)}, Clearance: clearanceOK}
	if u%vetoModulus == 0 {
		s.Clearance = 0
	}
	return s
}

// encodeCalls packs accesses into envelopes of w.batch requests each,
// encoding on every CPU: the daemon is not running yet.
func encodeCalls(w spec, tag string, accesses []access) ([]call, error) {
	calls := make([]call, len(accesses)/w.batch)
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for c := k; c < len(calls) && errs[k] == nil; c += workers {
				calls[c], errs[k] = encodeCall(w, fmt.Sprintf("bench-%s-%d", tag, c), accesses[c*w.batch:(c+1)*w.batch])
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return calls, nil
}

// encodeCall renders one envelope and its oracle answers.
func encodeCall(w spec, messageID string, group []access) (call, error) {
	c := call{expect: make([]decision, len(group))}
	docs := make([][]byte, len(group))
	for i, a := range group {
		doc, err := xacml.MarshalRequestXML(buildRequest(a, w.veto))
		if err != nil {
			return c, fmt.Errorf("encode request: %w", err)
		}
		docs[i] = doc
		c.expect[i] = expect(a.user, a.resource, w.veto)
	}
	env := &wire.Envelope{
		MessageID: messageID,
		From:      "bench", To: "pdpd",
		Action:    "pdp:decide",
		Timestamp: envelopeTime,
		Body:      docs[0],
	}
	if w.batch > 1 {
		frame, err := wire.EncodeBodies(docs)
		if err != nil {
			return c, err
		}
		env.Action, env.Body = "pdp:decide-batch", frame
	}
	var err error
	if c.body, err = env.EncodeXML(); err != nil {
		return c, fmt.Errorf("encode envelope: %w", err)
	}
	return c, nil
}

// decodeReply turns a reply envelope into one decision per position;
// anything undecodable is `other`, which the oracle never expects.
func decodeReply(body []byte, positions int) []decision {
	out := make([]decision, positions)
	env, err := wire.DecodeXML(body)
	if err != nil {
		return out
	}
	docs := [][]byte{env.Body}
	if positions > 1 {
		if docs, err = wire.DecodeBodies(env.Body); err != nil || len(docs) != positions {
			return out
		}
	}
	for i, doc := range docs {
		res, err := xacml.UnmarshalResponseXML(doc)
		if err != nil {
			continue
		}
		out[i] = classify(res.Decision)
	}
	return out
}

// classify maps the program's decision onto the benchmark's.
func classify(d policy.Decision) decision {
	switch d {
	case policy.DecisionPermit:
		return permit
	case policy.DecisionDeny:
		return deny
	}
	return other
}

// generate builds every input of one run from the seed. seconds sizes the
// non-wrapping stream of the cold workloads.
func generate(w spec, seed int64, seconds int) (*inputs, error) {
	in := &inputs{cyclic: !w.veto}
	var err error
	if in.policy, err = xacml.MarshalJSON(policyBase(w)); err != nil {
		return nil, fmt.Errorf("encode policy base: %w", err)
	}
	subjects := make([]subject, w.users)
	for u := range subjects {
		subjects[u] = subjectOf(u)
	}
	if in.subjects, err = json.Marshal(subjects); err != nil {
		return nil, err
	}

	var warm []access
	timed := 1 << 15 // a warm stream may wrap: its keys repeat by design
	if w.veto {
		// A cold population cannot be warmed; a short stream of its own
		// lets connections, heap and PIP cache reach their working shape.
		warm = drawAccesses(rand.New(rand.NewSource(seed^0x5bd1e995)), w, 2048)
		timed = missPoolPerS * seconds
		if w.batch > 1 {
			timed = batchPoolPerS * seconds
		}
	} else {
		warm = everyKey(w)
	}
	if in.warm, err = encodeCalls(w, "warm", warm); err != nil {
		return nil, err
	}
	if in.calls, err = encodeCalls(w, "run", drawAccesses(streamRand(seed), w, timed)); err != nil {
		return nil, err
	}
	if w.writesPerS > 0 {
		in.writes = make([][]byte, w.resources)
		for k := range in.writes {
			if in.writes[k], err = xacml.MarshalJSON(workload.ResourcePolicy(k, roles)); err != nil {
				return nil, fmt.Errorf("encode admin write: %w", err)
			}
		}
	}
	return in, nil
}
