// Package discovery implements dynamic Policy Decision Point discovery
// with signed decisions.
//
// Section 3.2 of the paper ("Location of Policy Decision Points") observes
// that a static PEP→PDP binding "does not fit into large computing
// environments": enforcement points "may just be satisfied with any
// decision that is signed by a particular administrative body", and "a
// discovery mechanism needs to be employed". This package supplies both
// halves:
//
//   - Registry lists decision points by the administrative authority that
//     vouches for them, with their certificates;
//   - ServeSigned publishes an engine on the network as a decision point
//     whose responses are signed authorisation-decision assertions;
//   - Client enforces the trust rule: it discovers a live decision point
//     of the required authority, queries it, and accepts the decision only
//     if the assertion verifies against the authority's certificate chain
//     and binds to the exact request. Nodes whose answers fail transport
//     or verification are skipped (failover); when no node yields a
//     verifiable decision the result is Indeterminate, which deny-biased
//     enforcement refuses — discovery failures fail closed.
//
// Mutual authentication is as the paper prescribes: the PEP checks the
// decision's signature chain, and the PDP learns nothing beyond the query
// it answers (decision points that must authenticate callers wrap their
// handler with wire message security).
package discovery

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/assertion"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/wire"
	"repro/internal/xacml"
)

// Package errors, matched with errors.Is.
var (
	// ErrNoDecisionPoint reports that no registered decision point of the
	// authority produced a verifiable decision.
	ErrNoDecisionPoint = errors.New("discovery: no verifiable decision point")
	// ErrBinding reports an assertion that does not match the request it
	// supposedly decides.
	ErrBinding = errors.New("discovery: decision does not bind to request")
)

// Entry describes one decision point.
type Entry struct {
	// Node is the decision point's network name.
	Node string
	// Authority names the administrative body vouching for it.
	Authority string
	// Cert is the decision point's signing certificate; it must chain to
	// the authority's root for clients to accept its decisions.
	Cert *pki.Certificate
}

// Registry is the discovery service: decision points indexed by authority.
type Registry struct {
	mu      sync.RWMutex
	entries map[string][]Entry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string][]Entry)}
}

// Register lists a decision point. Re-registering a node under the same
// authority replaces its entry.
func (r *Registry) Register(e Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	list := r.entries[e.Authority]
	for i, old := range list {
		if old.Node == e.Node {
			list[i] = e
			return
		}
	}
	r.entries[e.Authority] = append(list, e)
}

// Deregister removes a node from an authority's list.
func (r *Registry) Deregister(authority, node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	list := r.entries[authority]
	for i, e := range list {
		if e.Node == node {
			r.entries[authority] = append(list[:i:i], list[i+1:]...)
			return
		}
	}
}

// Lookup returns the decision points of an authority in registration
// order. The slice is a copy; callers may reorder it.
func (r *Registry) Lookup(authority string) []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	list := r.entries[authority]
	out := make([]Entry, len(list))
	copy(out, list)
	return out
}

// ServeSigned registers a decision point on the network: it answers
// request contexts with authorisation-decision assertions signed by key
// and valid for ttl. Both permits and denies are signed — a deny is a
// decision, not an error.
func ServeSigned(net *wire.Network, node string, decider policy.Decider, key pki.KeyPair, issuer string, ttl time.Duration) {
	net.Register(node, func(ctx context.Context, _ *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
		req, err := xacml.UnmarshalRequestJSON(env.Body)
		if err != nil {
			return nil, fmt.Errorf("discovery: %s: %w", node, err)
		}
		res := policy.Decide(ctx, decider, req, env.Timestamp)
		a := &assertion.Assertion{
			ID:           net.NextMessageID(node),
			Issuer:       issuer,
			Subject:      req.SubjectID(),
			IssuedAt:     env.Timestamp,
			NotBefore:    env.Timestamp,
			NotOnOrAfter: env.Timestamp.Add(ttl),
			Audience:     env.From,
			Decision: &assertion.AuthzDecision{
				Resource: req.ResourceID(),
				Action:   req.ActionID(),
				Decision: res.Decision,
			},
		}
		a.Sign(key)
		body, err := assertion.MarshalXML(a)
		if err != nil {
			return nil, err
		}
		return &wire.Envelope{Action: "pdp:signed-decision", Timestamp: env.Timestamp, Body: body}, nil
	})
}

// Stats counts client activity.
type Stats struct {
	// Queries counts decision attempts (one per enforcement, however many
	// nodes were tried).
	Queries int64
	// NodesTried counts individual node round-trips attempted.
	NodesTried int64
	// Failovers counts nodes skipped over transport failures.
	Failovers int64
	// Rejected counts responses discarded for failed verification or
	// request binding — each one is a potential attack and is also
	// reported through the OnReject hook.
	Rejected int64
	// Exhausted counts queries that ran out of nodes.
	Exhausted int64
}

// Client is a policy.Decider that discovers decision points of one
// administrative authority and verifies their signed decisions.
type Client struct {
	net       *wire.Network
	reg       *Registry
	authority string
	from      string
	trust     *pki.TrustStore
	onReject  func(node string, err error)

	mu    sync.Mutex
	stats Stats
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRejectHook installs a callback invoked for every discarded response,
// the alerting hook a deployment wires to its monitoring.
func WithRejectHook(fn func(node string, err error)) ClientOption {
	return func(c *Client) { c.onReject = fn }
}

// NewClient builds a client that accepts decisions only from decision
// points whose certificates chain to authorityRoot. from is this
// enforcement point's network name (and the audience it expects).
func NewClient(net *wire.Network, reg *Registry, authorityRoot *pki.Certificate, authority, from string, opts ...ClientOption) *Client {
	trust := pki.NewTrustStore()
	trust.AddRoot(authorityRoot)
	c := &Client{
		net:       net,
		reg:       reg,
		authority: authority,
		from:      from,
		trust:     trust,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Stats returns a snapshot of the counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Client) count(fn func(*Stats)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(&c.stats)
}

func (c *Client) reject(node string, err error) {
	c.count(func(s *Stats) { s.Rejected++ })
	if c.onReject != nil {
		c.onReject(node, err)
	}
}

// DecideScatterAt implements policy.Decider: each selected request (nil
// positions means every request) is decided on its own by decide, at at
// (zero: the current time). resolver is ignored, as pdp.Client ignores
// it: the discovered decision point resolves attributes itself.
func (c *Client) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, at time.Time, _ policy.Resolver, out []policy.Result) {
	if at.IsZero() {
		at = time.Now()
	}
	policy.EachPosition(len(reqs), positions, func(p int) { out[p] = c.decide(ctx, reqs[p], at) })
}

// decide discovers a decision point of the client's authority and returns
// its verified decision. Unreachable nodes fail over; responses that do
// not verify are discarded; a ctx done between nodes stops the walk —
// discovery does not keep shopping for a decision its caller can no
// longer use. With no verifiable decision the result is Indeterminate
// carrying ErrNoDecisionPoint.
func (c *Client) decide(ctx context.Context, req *policy.Request, at time.Time) policy.Result {
	c.count(func(s *Stats) { s.Queries++ })
	entries := c.reg.Lookup(c.authority)
	body, err := xacml.MarshalRequestJSON(req)
	if err != nil {
		return policy.Result{Decision: policy.DecisionIndeterminate, Err: err}
	}
	// A caller deadline becomes the envelope budget, so the virtual
	// network bounds each discovery attempt exactly as a real transport
	// would.
	var budget time.Duration
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			budget = rem
		}
	}
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return policy.Result{Decision: policy.DecisionIndeterminate,
				Err: fmt.Errorf("discovery: context done before decision: %w", err)}
		}
		c.count(func(s *Stats) { s.NodesTried++ })
		reply, err := c.net.Send(ctx, &wire.Call{}, &wire.Envelope{
			From:      c.from,
			To:        e.Node,
			Action:    "pdp:decide-signed",
			Timestamp: at,
			Deadline:  budget,
			Body:      body,
		})
		if err != nil {
			c.count(func(s *Stats) { s.Failovers++ })
			continue
		}
		a, err := assertion.UnmarshalXML(reply.Body)
		if err != nil {
			c.reject(e.Node, err)
			continue
		}
		if err := c.verify(a, e, req, at); err != nil {
			c.reject(e.Node, err)
			continue
		}
		return policy.Result{Decision: a.Decision.Decision, By: a.Issuer}
	}
	c.count(func(s *Stats) { s.Exhausted++ })
	return policy.Result{Decision: policy.DecisionIndeterminate,
		Err: fmt.Errorf("discovery: authority %s, %d nodes tried: %w", c.authority, len(entries), ErrNoDecisionPoint)}
}

// verify checks the assertion's signature chain against the authority
// root and its binding to the request.
func (c *Client) verify(a *assertion.Assertion, e Entry, req *policy.Request, at time.Time) error {
	if err := a.Verify(assertion.VerifyOptions{
		Trust:      c.trust,
		IssuerCert: e.Cert,
		At:         at,
		Audience:   c.from,
	}); err != nil {
		return err
	}
	if a.Decision == nil {
		return fmt.Errorf("%w: no decision statement", ErrBinding)
	}
	if a.Subject != req.SubjectID() || a.Decision.Resource != req.ResourceID() || a.Decision.Action != req.ActionID() {
		return fmt.Errorf("%w: asserted (%s,%s,%s), requested (%s,%s,%s)",
			ErrBinding, a.Subject, a.Decision.Resource, a.Decision.Action,
			req.SubjectID(), req.ResourceID(), req.ActionID())
	}
	return nil
}
