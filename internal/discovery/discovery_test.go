package discovery

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/assertion"
	"repro/internal/pdp"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/wire"
	"repro/internal/xacml"
)

// xacmlRequest decodes a request context, shared by the malicious-node
// handlers below.
func xacmlRequest(body []byte) (*policy.Request, error) {
	return xacml.UnmarshalRequestJSON(body)
}

type detRand struct{ r *rand.Rand }

func newDetRand(seed int64) *detRand { return &detRand{r: rand.New(rand.NewSource(seed))} }

func (d *detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

var (
	epoch = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	later = epoch.AddDate(1, 0, 0)
	at    = epoch.Add(time.Hour)
)

// fixture: an authority CA vouching for two decision points on a simulated
// network, plus a client PEP that trusts only that authority.
type fixture struct {
	net       *wire.Network
	reg       *Registry
	root      *pki.Authority
	client    *Client
	keys      map[string]pki.KeyPair
	med2Entry Entry
}

func doctorPolicy() *policy.PolicySet {
	return policy.NewPolicySet("base").Combining(policy.DenyUnlessPermit).
		Add(policy.NewPolicy("doctors").
			Combining(policy.DenyUnlessPermit).
			Rule(policy.Permit("doctors-read").
				When(policy.MatchRole("doctor"), policy.MatchActionID("read")).
				Build()).
			Build()).
		Build()
}

func newEngine(t *testing.T, name string) *pdp.Engine {
	t.Helper()
	e := pdp.New(name)
	if err := e.SetRoot(doctorPolicy()); err != nil {
		t.Fatal(err)
	}
	return e
}

func newFixture(t *testing.T, opts ...ClientOption) *fixture {
	t.Helper()
	root, err := pki.NewRootAuthority("authority.med", newDetRand(1), epoch, later)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{
		net:  wire.NewNetwork(5*time.Millisecond, 1),
		reg:  NewRegistry(),
		root: root,
		keys: make(map[string]pki.KeyPair),
	}
	for i, node := range []string{"pdp.med.1", "pdp.med.2"} {
		key, err := pki.GenerateKeyPair(newDetRand(int64(10 + i)))
		if err != nil {
			t.Fatal(err)
		}
		f.keys[node] = key
		cert := root.Issue(node, key.Public, epoch, later, false)
		ServeSigned(f.net, node, newEngine(t, node), key, node, 15*time.Minute)
		entry := Entry{Node: node, Authority: "authority.med", Cert: cert}
		f.reg.Register(entry)
		if node == "pdp.med.2" {
			f.med2Entry = entry
		}
	}
	f.net.Register("pep.ward", func(_ context.Context, _ *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
		return env, nil
	})
	f.client = NewClient(f.net, f.reg, root.Certificate(), "authority.med", "pep.ward", opts...)
	return f
}

func doctorReq(subject, action string) *policy.Request {
	return policy.NewAccessRequest(subject, "rec-7", action).
		Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String("doctor"))
}

func TestSignedDecisionHappyPath(t *testing.T) {
	f := newFixture(t)
	res := policy.Decide(context.Background(), f.client, doctorReq("alice", "read"), at)
	if res.Decision != policy.DecisionPermit {
		t.Fatalf("decision = %v (%v), want Permit", res.Decision, res.Err)
	}
	if res.By != "pdp.med.1" {
		t.Errorf("decider = %q, want first registered node", res.By)
	}
	// A deny is a verified decision too, not a reason to shop around.
	res = policy.Decide(context.Background(), f.client, doctorReq("alice", "delete"), at)
	if res.Decision != policy.DecisionDeny {
		t.Fatalf("deny decision = %v, want Deny", res.Decision)
	}
	st := f.client.Stats()
	if st.Queries != 2 || st.NodesTried != 2 || st.Failovers != 0 || st.Rejected != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFailoverToSecondNode(t *testing.T) {
	f := newFixture(t)
	f.net.SetNodeDown("pdp.med.1", true)
	res := policy.Decide(context.Background(), f.client, doctorReq("alice", "read"), at)
	if res.Decision != policy.DecisionPermit {
		t.Fatalf("decision = %v (%v), want Permit via second node", res.Decision, res.Err)
	}
	if res.By != "pdp.med.2" {
		t.Errorf("decider = %q, want pdp.med.2", res.By)
	}
	if st := f.client.Stats(); st.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", st.Failovers)
	}
}

func TestAllNodesDownFailsClosed(t *testing.T) {
	f := newFixture(t)
	f.net.SetNodeDown("pdp.med.1", true)
	f.net.SetNodeDown("pdp.med.2", true)
	res := policy.Decide(context.Background(), f.client, doctorReq("alice", "read"), at)
	if res.Decision != policy.DecisionIndeterminate || !errors.Is(res.Err, ErrNoDecisionPoint) {
		t.Fatalf("result = %+v, want Indeterminate/ErrNoDecisionPoint", res)
	}
	if st := f.client.Stats(); st.Exhausted != 1 {
		t.Errorf("exhausted = %d, want 1", st.Exhausted)
	}
}

func TestRoguePDPIsRejected(t *testing.T) {
	// A decision point whose certificate chains to a different CA serves a
	// permit; the client must discard it and fail over to an honest node.
	var rejected []string
	f := newFixture(t, WithRejectHook(func(node string, err error) {
		rejected = append(rejected, node)
	}))
	rogueCA, err := pki.NewRootAuthority("authority.evil", newDetRand(66), epoch, later)
	if err != nil {
		t.Fatal(err)
	}
	rogueKey, err := pki.GenerateKeyPair(newDetRand(67))
	if err != nil {
		t.Fatal(err)
	}
	rogueCert := rogueCA.Issue("pdp.rogue", rogueKey.Public, epoch, later, false)
	permitAll := pdp.New("rogue")
	if err := permitAll.SetRoot(policy.NewPolicySet("open").Combining(policy.PermitUnlessDeny).Build()); err != nil {
		t.Fatal(err)
	}
	ServeSigned(f.net, "pdp.rogue", permitAll, rogueKey, "pdp.rogue", 15*time.Minute)
	// The rogue squeezes in front of the honest nodes in the registry.
	f.reg = NewRegistry()
	f.reg.Register(Entry{Node: "pdp.rogue", Authority: "authority.med", Cert: rogueCert})
	f.reg.Register(Entry{Node: "pdp.med.1", Authority: "authority.med", Cert: f.root.Issue("pdp.med.1", f.keys["pdp.med.1"].Public, epoch, later, false)})
	client := NewClient(f.net, f.reg, f.root.Certificate(), "authority.med", "pep.ward",
		WithRejectHook(func(node string, err error) { rejected = append(rejected, node) }))

	// mallory is no doctor: the rogue would permit her, the honest node
	// denies. The verified outcome must be the honest deny.
	res := policy.Decide(context.Background(), client, policy.NewAccessRequest("mallory", "rec-7", "read"), at)
	if res.Decision != policy.DecisionDeny {
		t.Fatalf("decision = %v (%v), want honest Deny", res.Decision, res.Err)
	}
	if len(rejected) != 1 || rejected[0] != "pdp.rogue" {
		t.Errorf("rejected = %v, want [pdp.rogue]", rejected)
	}
}

func TestTamperedDecisionIsRejected(t *testing.T) {
	// A man-in-the-middle node flips a deny to a permit without the
	// authority's key; the signature check must catch it.
	f := newFixture(t)
	key := f.keys["pdp.med.1"]
	engine := newEngine(t, "mitm-engine")
	f.net.Register("pdp.med.1", func(_ context.Context, _ *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
		req, err := xacmlRequest(env.Body)
		if err != nil {
			return nil, err
		}
		res := policy.Decide(context.Background(), engine, req, env.Timestamp)
		a := &assertion.Assertion{
			ID: "forged", Issuer: "pdp.med.1", Subject: req.SubjectID(),
			IssuedAt: env.Timestamp, NotBefore: env.Timestamp,
			NotOnOrAfter: env.Timestamp.Add(15 * time.Minute), Audience: env.From,
			Decision: &assertion.AuthzDecision{
				Resource: req.ResourceID(), Action: req.ActionID(), Decision: res.Decision,
			},
		}
		a.Sign(key)
		a.Decision.Decision = policy.DecisionPermit // tamper after signing
		body, err := assertion.MarshalXML(a)
		if err != nil {
			return nil, err
		}
		return &wire.Envelope{Action: "pdp:signed-decision", Timestamp: env.Timestamp, Body: body}, nil
	})
	res := policy.Decide(context.Background(), f.client, policy.NewAccessRequest("mallory", "rec-7", "read"), at)
	// The tampered permit is discarded; the honest second node denies.
	if res.Decision != policy.DecisionDeny {
		t.Fatalf("decision = %v (%v), want Deny", res.Decision, res.Err)
	}
	if st := f.client.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

func TestMisboundDecisionIsRejected(t *testing.T) {
	// A confused (or malicious) node answers about the wrong resource; the
	// binding check must refuse it even though the signature verifies.
	f := newFixture(t)
	key := f.keys["pdp.med.1"]
	f.net.Register("pdp.med.1", func(_ context.Context, _ *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
		req, err := xacmlRequest(env.Body)
		if err != nil {
			return nil, err
		}
		a := &assertion.Assertion{
			ID: "misbound", Issuer: "pdp.med.1", Subject: req.SubjectID(),
			IssuedAt: env.Timestamp, NotBefore: env.Timestamp,
			NotOnOrAfter: env.Timestamp.Add(15 * time.Minute), Audience: env.From,
			Decision: &assertion.AuthzDecision{
				Resource: "some-other-resource", Action: req.ActionID(), Decision: policy.DecisionPermit,
			},
		}
		a.Sign(key)
		body, err := assertion.MarshalXML(a)
		if err != nil {
			return nil, err
		}
		return &wire.Envelope{Action: "pdp:signed-decision", Timestamp: env.Timestamp, Body: body}, nil
	})
	var rejectErr error
	client := NewClient(f.net, f.reg, f.root.Certificate(), "authority.med", "pep.ward",
		WithRejectHook(func(_ string, err error) { rejectErr = err }))
	res := policy.Decide(context.Background(), client, doctorReq("alice", "read"), at)
	if res.Decision != policy.DecisionPermit || res.By != "pdp.med.2" {
		t.Fatalf("decision = %v by %q, want Permit by pdp.med.2", res.Decision, res.By)
	}
	if !errors.Is(rejectErr, ErrBinding) {
		t.Errorf("reject error = %v, want ErrBinding", rejectErr)
	}
}

func TestExpiredDecisionIsRejected(t *testing.T) {
	// Verifying long after issuance must fail the assertion window. The
	// fixture nodes sign 15-minute decisions issued at the envelope
	// timestamp; verify one hour later by lying about the clock skew:
	// the client stamps and verifies at `at`, so serve a pre-expired
	// assertion by shrinking the TTL to zero.
	f := newFixture(t)
	key := f.keys["pdp.med.1"]
	ServeSigned(f.net, "pdp.med.1", newEngine(t, "short"), key, "pdp.med.1", 0)
	var rejectErr error
	client := NewClient(f.net, f.reg, f.root.Certificate(), "authority.med", "pep.ward",
		WithRejectHook(func(_ string, err error) { rejectErr = err }))
	res := policy.Decide(context.Background(), client, doctorReq("alice", "read"), at)
	if res.Decision != policy.DecisionPermit || res.By != "pdp.med.2" {
		t.Fatalf("decision = %v by %q, want Permit by pdp.med.2", res.Decision, res.By)
	}
	if !errors.Is(rejectErr, assertion.ErrExpired) {
		t.Errorf("reject error = %v, want ErrExpired", rejectErr)
	}
}

func TestRegistryRegisterDeregister(t *testing.T) {
	reg := NewRegistry()
	reg.Register(Entry{Node: "a", Authority: "auth"})
	reg.Register(Entry{Node: "b", Authority: "auth"})
	reg.Register(Entry{Node: "a", Authority: "auth"}) // replace, not duplicate
	if got := reg.Lookup("auth"); len(got) != 2 {
		t.Fatalf("lookup = %v, want 2 entries", got)
	}
	reg.Deregister("auth", "a")
	got := reg.Lookup("auth")
	if len(got) != 1 || got[0].Node != "b" {
		t.Errorf("after deregister: %v", got)
	}
	if got := reg.Lookup("unknown"); len(got) != 0 {
		t.Errorf("unknown authority: %v", got)
	}
}
