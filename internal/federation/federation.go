// Package federation is the multi-domain layer of Fig. 1 in the paper: it
// assembles autonomous domains — each with its own Identity Provider,
// Policy Administration Point, Policy Decision Point and Policy
// Enforcement Point — into a Virtual Organisation with cross-certified
// trust, a VO-level policy, a PDP discovery registry, a delegation
// registry and a consolidated audit log.
//
// Two authorisation flows are provided, matching Figs. 2 and 3:
//
//   - the pull (policy-issuing) flow: the resource domain's PEP queries
//     its PDP per access; cross-domain subjects cost an extra attribute
//     round-trip to the subject's home Identity Provider; the local
//     decision is then combined with the VO policy under domain autonomy
//     (a local or VO deny is final, access requires a local permit);
//   - the push (capability-issuing) flow: the client first obtains a
//     signed capability from the VO capability service, then presents it
//     to the resource PEP, which validates it locally without contacting
//     any PDP.
//
// Every hop is a wire envelope on the simulated network, so experiments
// observe the exact message counts and virtual latencies the paper's
// Communication Performance section reasons about.
package federation

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/assertion"
	"repro/internal/audit"
	"repro/internal/capability"
	"repro/internal/delegation"
	"repro/internal/pap"
	"repro/internal/pdp"
	"repro/internal/pip"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/xacml"
)

// Federation errors, matched with errors.Is.
var (
	// ErrUnknownDomain reports a request routed to an unregistered
	// domain.
	ErrUnknownDomain = errors.New("federation: unknown domain")
	// ErrDenied reports a refused access.
	ErrDenied = errors.New("federation: access denied")
)

// Node-name helpers: every component is addressable on the network.

// PEPAddr returns the network name of a domain's enforcement point.
func PEPAddr(domain string) string { return "pep." + domain }

// PDPAddr returns the network name of a domain's decision point.
func PDPAddr(domain string) string { return "pdp." + domain }

// IdPAddr returns the network name of a domain's identity provider.
func IdPAddr(domain string) string { return "idp." + domain }

// ClientAddr returns the network name of a domain's client gateway.
func ClientAddr(domain string) string { return "client." + domain }

// Domain is one autonomous member of the Virtual Organisation.
type Domain struct {
	// Name identifies the domain.
	Name string
	// CA is the domain's certificate authority, cross-certified into
	// the VO trust store on admission.
	CA *pki.Authority
	// Directory is the domain's Identity Provider.
	Directory *pip.Directory
	// PAP is the domain's administration point.
	PAP *pap.Store
	// PDP is the domain's decision engine.
	PDP *pdp.Engine

	vo *VO

	deciderMu sync.RWMutex
	decider   policy.Decider

	refreshMu    sync.Mutex
	refreshErrs  atomic.Int64
	onRefreshErr func(error)
}

// UseDecider replaces where the domain's decisions come from — the single
// PDP engine by default, or a replicated ha.Ensemble installed for
// dependability; a nil decider restores the built-in PDP engine.
func (d *Domain) UseDecider(dec policy.Decider) {
	d.deciderMu.Lock()
	defer d.deciderMu.Unlock()
	d.decider = dec
}

// currentDecider returns the active decision source.
func (d *Domain) currentDecider() policy.Decider {
	d.deciderMu.RLock()
	defer d.deciderMu.RUnlock()
	if d.decider != nil {
		return d.decider
	}
	return d.PDP
}

// NewDomain builds a domain with a fresh CA (deterministic from the
// entropy source), an empty directory and an empty PAP whose PDP follows
// it (pap.Follow) under the domain's Root: each pap.Update patches the one
// affected root child in place (invalidating only the cached decisions
// its resource keys constrain), falling back to a full reassembly only
// when the PDP holds no patchable root. Refresh failures are counted and
// reported through OnRefreshError, so a PDP silently serving stale policy
// is observable.
func NewDomain(name string, entropy io.Reader, notBefore, notAfter time.Time) (*Domain, error) {
	ca, err := pki.NewRootAuthority("ca."+name, entropy, notBefore, notAfter)
	if err != nil {
		return nil, fmt.Errorf("federation: domain %s: %w", name, err)
	}
	d := &Domain{
		Name:      name,
		CA:        ca,
		Directory: pip.NewDirectory(IdPAddr(name)),
		PAP:       pap.NewStore("pap." + name),
		PDP:       pdp.New(PDPAddr(name)),
	}
	if err := pap.Follow(d.PDP, d.PAP, d.Root(), d.ReportRefreshError); err != nil {
		return nil, fmt.Errorf("federation: domain %s: %w", name, err)
	}
	return d, nil
}

// Root is the shape of the domain's assembled policy root: its live
// policies under "<name>-root", combined deny-overrides.
func (d *Domain) Root() pap.Root {
	return pap.Root{ID: d.Name + "-root", Combining: policy.DenyOverrides}
}

// ReportRefreshError records a failed PAP→PDP refresh: the PDP may be
// serving stale policy. Exported so the core facade's replicated deciders
// report through the same counter.
func (d *Domain) ReportRefreshError(err error) {
	d.refreshErrs.Add(1)
	d.refreshMu.Lock()
	cb := d.onRefreshErr
	d.refreshMu.Unlock()
	if cb != nil {
		cb(err)
	}
}

// RefreshErrors reports how many PAP→PDP refreshes have failed since the
// domain was built.
func (d *Domain) RefreshErrors() int64 { return d.refreshErrs.Load() }

// OnRefreshError registers a callback invoked with every refresh failure,
// for alerting on stale-policy serving; a nil fn clears it.
func (d *Domain) OnRefreshError(fn func(error)) {
	d.refreshMu.Lock()
	defer d.refreshMu.Unlock()
	d.onRefreshErr = fn
}

// VO is a Virtual Organisation: the federation of domains.
type VO struct {
	// Name identifies the organisation.
	Name string
	// Net is the shared simulated network.
	Net *wire.Network
	// Trust holds every member CA plus the VO's own.
	Trust *pki.TrustStore
	// Delegation tracks cross-domain administrative delegation rooted
	// at the VO authority.
	Delegation *delegation.Registry
	// Audit is the consolidated audit log.
	Audit *audit.Log

	ca      *pki.Authority
	voPDP   *pdp.Engine
	capKey  pki.KeyPair
	capCert *pki.Certificate

	mu      sync.RWMutex
	domains map[string]*Domain
}

// CASAddr returns the network name of the VO capability service.
func (vo *VO) CASAddr() string { return "cas." + vo.Name }

// NewVO builds a Virtual Organisation on the given network. The VO policy
// defaults to permit-unless-deny (the VO only vetoes; domains decide), and
// can be replaced with SetVOPolicy.
func NewVO(name string, net *wire.Network, entropy io.Reader, notBefore, notAfter time.Time) (*VO, error) {
	ca, err := pki.NewRootAuthority("ca."+name, entropy, notBefore, notAfter)
	if err != nil {
		return nil, fmt.Errorf("federation: vo %s: %w", name, err)
	}
	capKey, err := pki.GenerateKeyPair(entropy)
	if err != nil {
		return nil, fmt.Errorf("federation: vo %s: %w", name, err)
	}
	vo := &VO{
		Name:       name,
		Net:        net,
		Trust:      pki.NewTrustStore(),
		Delegation: delegation.NewRegistry(),
		Audit:      audit.NewLog(0),
		ca:         ca,
		voPDP:      pdp.New("pdp." + name),
		capKey:     capKey,
		domains:    make(map[string]*Domain),
	}
	vo.Trust.AddRoot(ca.Certificate())
	vo.capCert = ca.Issue("cas."+name, capKey.Public, notBefore, notAfter, false)
	vo.Delegation.AddRoot("authority." + name)
	_ = vo.voPDP.SetRoot(policy.NewPolicySet(name + "-vo-policy").Combining(policy.PermitUnlessDeny).Build())
	net.Register(vo.CASAddr(), vo.handleCapabilityRequest)
	return vo, nil
}

// CapabilityCert returns the capability service's certificate, which
// member PEPs trust.
func (vo *VO) CapabilityCert() *pki.Certificate { return vo.capCert }

// SetVOPolicy installs the organisation-wide policy evaluated alongside
// every domain decision.
func (vo *VO) SetVOPolicy(root policy.Evaluable) error {
	return vo.voPDP.SetRoot(root)
}

// AddDomain admits a domain: its CA is cross-certified into the VO trust
// store, its components are registered on the network, and it is listed in
// the PDP discovery registry.
func (vo *VO) AddDomain(d *Domain) {
	vo.mu.Lock()
	vo.domains[d.Name] = d
	vo.mu.Unlock()
	d.vo = vo
	vo.Trust.AddRoot(d.CA.Certificate())
	vo.Delegation.AddRoot("authority." + d.Name)

	vo.Net.Register(ClientAddr(d.Name), func(_ context.Context, _ *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
		return &wire.Envelope{Action: "ack", Timestamp: env.Timestamp}, nil
	})
	vo.Net.Register(IdPAddr(d.Name), d.handleAttributeQuery)
	vo.Net.Register(PDPAddr(d.Name), d.handleDecide)
	vo.Net.Register(PEPAddr(d.Name), d.handleAccess)
}

// Domain looks a member up in the discovery registry.
func (vo *VO) Domain(name string) (*Domain, bool) {
	vo.mu.RLock()
	defer vo.mu.RUnlock()
	d, ok := vo.domains[name]
	return d, ok
}

// Domains lists member names, sorted.
func (vo *VO) Domains() []string {
	vo.mu.RLock()
	defer vo.mu.RUnlock()
	out := make([]string, 0, len(vo.domains))
	for n := range vo.domains {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// --- attribute retrieval across domains ---

type attrQuery struct {
	Subject  string `json:"subject"`
	Category string `json:"category"`
	Name     string `json:"name"`
}

type attrReply struct {
	Values []struct {
		Kind string `json:"kind"`
		Text string `json:"value"`
	} `json:"values"`
}

// handleAttributeQuery serves the domain's IdP attributes over the wire.
func (d *Domain) handleAttributeQuery(ctx context.Context, _ *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
	var q attrQuery
	if err := json.Unmarshal(env.Body, &q); err != nil {
		return nil, fmt.Errorf("federation: idp %s: %w", d.Name, err)
	}
	cat, err := policy.CategoryFromString(q.Category)
	if err != nil {
		return nil, err
	}
	probe := policy.NewRequest().Add(policy.CategorySubject, policy.AttrSubjectID, policy.String(q.Subject))
	bag, err := d.Directory.ResolveAttribute(ctx, probe, cat, q.Name)
	if err != nil {
		return nil, err
	}
	var reply attrReply
	for _, v := range bag {
		reply.Values = append(reply.Values, struct {
			Kind string `json:"kind"`
			Text string `json:"value"`
		}{Kind: v.Kind().String(), Text: v.String()})
	}
	body, err := json.Marshal(&reply)
	if err != nil {
		return nil, err
	}
	return &wire.Envelope{Action: "idp:attributes", Timestamp: env.Timestamp, Body: body}, nil
}

// crossDomainResolver resolves subject attributes from the subject's home
// IdP: locally when the subject is home, over the network otherwise.
type crossDomainResolver struct {
	local *Domain
	call  *wire.Call
	at    time.Time
}

var _ policy.Resolver = (*crossDomainResolver)(nil)

func (r *crossDomainResolver) ResolveAttribute(ctx context.Context, req *policy.Request, cat policy.Category, name string) (policy.Bag, error) {
	if cat != policy.CategorySubject || req == nil {
		// Non-subject attributes never cross domains.
		return nil, nil
	}
	home := ""
	if bag, ok := req.Get(policy.CategorySubject, policy.AttrSubjectDomain); ok && !bag.Empty() {
		home = bag[0].String()
	}
	if home == "" || home == r.local.Name {
		return r.local.Directory.ResolveAttribute(ctx, req, cat, name)
	}
	vo := r.local.vo
	if vo == nil {
		return nil, fmt.Errorf("federation: domain %s not in a VO", r.local.Name)
	}
	if _, ok := vo.Domain(home); !ok {
		return nil, fmt.Errorf("federation: subject domain %s: %w", home, ErrUnknownDomain)
	}
	q := attrQuery{Subject: req.SubjectID(), Category: cat.String(), Name: name}
	body, err := json.Marshal(&q)
	if err != nil {
		return nil, err
	}
	reply, err := vo.Net.Send(ctx, r.call, &wire.Envelope{
		From:      PDPAddr(r.local.Name),
		To:        IdPAddr(home),
		Action:    "idp:query",
		Timestamp: r.at,
		Body:      body,
	})
	if err != nil {
		return nil, err
	}
	var ar attrReply
	if err := json.Unmarshal(reply.Body, &ar); err != nil {
		return nil, err
	}
	bag := make(policy.Bag, 0, len(ar.Values))
	for _, v := range ar.Values {
		kind, err := policy.KindFromString(v.Kind)
		if err != nil {
			return nil, err
		}
		val, err := policy.ParseValue(kind, v.Text)
		if err != nil {
			return nil, err
		}
		bag = append(bag, val)
	}
	return bag, nil
}

// --- the pull flow ---

// armDeadline translates a caller context deadline into the envelope's
// Deadline budget (when the envelope does not already carry one), so the
// simulated network's virtual clock enforces the same bound a real
// transport would. Every client-facing flow entry point uses it.
func armDeadline(ctx context.Context, env *wire.Envelope) *wire.Envelope {
	if env.Deadline > 0 {
		return env
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			env.Deadline = rem
		}
	}
	return env
}

// decideWith decides one request through d with the per-call cross-domain
// resolver, which bypasses decision caches; ctx bounds the decision,
// resolver round-trips included.
func decideWith(ctx context.Context, d policy.Decider, req *policy.Request, at time.Time, resolver policy.Resolver) policy.Result {
	var out [1]policy.Result
	d.DecideScatterAt(ctx, []*policy.Request{req}, nil, at, resolver, out[:])
	return out[0]
}

// combine applies domain autonomy: access requires a local permit and
// survives only if the VO policy does not veto it.
func combine(local, vo policy.Result) policy.Result {
	if local.Decision != policy.DecisionPermit {
		return local
	}
	if vo.Decision == policy.DecisionDeny || vo.Decision == policy.DecisionIndeterminate {
		return vo
	}
	return local
}

// handleDecide answers authorisation decision queries at the domain PDP,
// consulting foreign IdPs and the VO policy as needed. The cross-domain
// resolver is fronted by a per-request memo (pip.RequestResolver), so an
// attribute fetched for the local decision is not fetched again when the
// VO policy consults it — one IdP round-trip per attribute per request.
func (d *Domain) handleDecide(ctx context.Context, call *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
	req, err := xacml.UnmarshalRequestJSON(env.Body)
	if err != nil {
		return nil, err
	}
	resolver := pip.NewRequestResolver(&crossDomainResolver{local: d, call: call, at: env.Timestamp})
	local := decideWith(ctx, d.currentDecider(), req, env.Timestamp, resolver)
	var final policy.Result
	if d.vo != nil {
		voRes := decideWith(ctx, d.vo.voPDP, req, env.Timestamp, resolver)
		final = combine(local, voRes)
	} else {
		final = local
	}
	body, err := xacml.MarshalResponseJSON(final)
	if err != nil {
		return nil, err
	}
	return &wire.Envelope{Action: "pdp:decision", Timestamp: env.Timestamp, Body: body}, nil
}

// handleAccess is the domain PEP: it receives resource access requests,
// obtains a decision from the domain PDP (one wire round-trip), enforces
// deny-bias and records the audit event.
func (d *Domain) handleAccess(ctx context.Context, call *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
	req, err := xacml.UnmarshalRequestJSON(env.Body)
	if err != nil {
		return nil, err
	}
	startElapsed := call.Elapsed
	reply, err := d.vo.Net.Send(ctx, call, &wire.Envelope{
		From:      PEPAddr(d.Name),
		To:        PDPAddr(d.Name),
		Action:    "pdp:decide",
		Timestamp: env.Timestamp,
		Body:      env.Body,
	})
	var res policy.Result
	if err != nil {
		res = policy.Result{Decision: policy.DecisionIndeterminate, Err: err}
	} else {
		res, err = xacml.UnmarshalResponseJSON(reply.Body)
		if err != nil {
			return nil, err
		}
	}
	d.vo.Audit.Record(audit.Event{
		Time:      env.Timestamp,
		Domain:    d.Name,
		Component: PEPAddr(d.Name),
		Subject:   req.SubjectID(),
		Resource:  req.ResourceID(),
		Action:    req.ActionID(),
		Decision:  res.Decision,
		By:        res.By,
		Latency:   call.Elapsed - startElapsed,
		TraceID:   trace.CurrentID(ctx),
	})
	body, err := xacml.MarshalResponseJSON(res)
	if err != nil {
		return nil, err
	}
	return &wire.Envelope{Action: "resource:response", Timestamp: env.Timestamp, Body: body}, nil
}

// Outcome reports one federated access attempt.
type Outcome struct {
	// Allowed reports whether the access proceeded.
	Allowed bool
	// Decision is the combined decision.
	Decision policy.Decision
	// By attributes the decision.
	By string
	// Latency is the virtual end-to-end latency; Messages and Bytes
	// count wire traffic for this access.
	Latency  time.Duration
	Messages int
	Bytes    int
	// Err explains refusals.
	Err error
}

// Request runs the pull-model flow of Fig. 3: the client in clientDomain
// accesses a resource in the domain named by the request's
// resource-domain attribute. ctx bounds the whole flow; a ctx deadline is
// additionally translated into an envelope deadline budget, so every hop
// of the flow (PEP → PDP → foreign IdP) spends the one budget on the
// network's virtual clock and an over-budget flow fails closed.
func (vo *VO) Request(ctx context.Context, clientDomain string, req *policy.Request, at time.Time) Outcome {
	resourceDomain := ""
	if bag, ok := req.Get(policy.CategoryResource, policy.AttrResourceDomain); ok && !bag.Empty() {
		resourceDomain = bag[0].String()
	}
	if _, ok := vo.Domain(resourceDomain); !ok {
		return Outcome{Decision: policy.DecisionIndeterminate,
			Err: fmt.Errorf("federation: resource domain %q: %w", resourceDomain, ErrUnknownDomain)}
	}
	body, err := xacml.MarshalRequestJSON(req)
	if err != nil {
		return Outcome{Decision: policy.DecisionIndeterminate, Err: err}
	}
	call := &wire.Call{}
	env := armDeadline(ctx, &wire.Envelope{
		From:      ClientAddr(clientDomain),
		To:        PEPAddr(resourceDomain),
		Action:    "resource:access",
		Timestamp: at,
		Body:      body,
	})
	reply, err := vo.Net.Send(ctx, call, env)
	out := Outcome{Latency: call.Elapsed, Messages: call.Messages, Bytes: call.Bytes}
	if err != nil {
		out.Decision = policy.DecisionIndeterminate
		out.Err = err
		return out
	}
	res, err := xacml.UnmarshalResponseJSON(reply.Body)
	if err != nil {
		out.Decision = policy.DecisionIndeterminate
		out.Err = err
		return out
	}
	out.Decision = res.Decision
	out.By = res.By
	if res.Decision == policy.DecisionPermit {
		out.Allowed = true
	} else {
		out.Err = fmt.Errorf("federation: %s on %s by %s: %s: %w",
			req.ActionID(), req.ResourceID(), req.SubjectID(), res.Decision, ErrDenied)
	}
	return out
}

// --- the push flow ---

// handleCapabilityRequest serves the VO capability service over the wire:
// the body is a request context; the reply is a signed capability
// assertion or a refusal.
func (vo *VO) handleCapabilityRequest(ctx context.Context, call *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
	req, err := xacml.UnmarshalRequestJSON(env.Body)
	if err != nil {
		return nil, err
	}
	resourceDomain := ""
	if bag, ok := req.Get(policy.CategoryResource, policy.AttrResourceDomain); ok && !bag.Empty() {
		resourceDomain = bag[0].String()
	}
	d, ok := vo.Domain(resourceDomain)
	if !ok {
		return nil, fmt.Errorf("federation: capability for domain %q: %w", resourceDomain, ErrUnknownDomain)
	}
	// The CAS pre-screens against the same combined view the pull flow
	// enforces: resource-domain policy plus VO policy, sharing one
	// per-request attribute memo across both evaluations.
	resolver := pip.NewRequestResolver(&crossDomainResolver{local: d, call: call, at: env.Timestamp})
	local := decideWith(ctx, d.PDP, req, env.Timestamp, resolver)
	final := combine(local, decideWith(ctx, vo.voPDP, req, env.Timestamp, resolver))
	if final.Decision != policy.DecisionPermit {
		return nil, fmt.Errorf("federation: capability refused: %s: %w", final.Decision, capability.ErrNotAuthorized)
	}
	now := env.Timestamp
	a := &assertion.Assertion{
		ID:           vo.Net.NextMessageID("cap"),
		Issuer:       "cas." + vo.Name,
		Subject:      req.SubjectID(),
		IssuedAt:     now,
		NotBefore:    now,
		NotOnOrAfter: now.Add(15 * time.Minute),
		Audience:     PEPAddr(resourceDomain),
		Decision: &assertion.AuthzDecision{
			Resource: req.ResourceID(),
			Action:   req.ActionID(),
			Decision: policy.DecisionPermit,
		},
	}
	a.Sign(vo.capKey)
	body, err := assertion.MarshalXML(a)
	if err != nil {
		return nil, err
	}
	return &wire.Envelope{Action: "cas:capability", Timestamp: env.Timestamp, Body: body}, nil
}

// RequestCapability obtains a capability from the VO capability service
// (steps I-II of Fig. 2), returning it with the traffic spent.
func (vo *VO) RequestCapability(ctx context.Context, clientDomain string, req *policy.Request, at time.Time) (*assertion.Assertion, Outcome) {
	body, err := xacml.MarshalRequestJSON(req)
	if err != nil {
		return nil, Outcome{Decision: policy.DecisionIndeterminate, Err: err}
	}
	call := &wire.Call{}
	reply, err := vo.Net.Send(ctx, call, armDeadline(ctx, &wire.Envelope{
		From:      ClientAddr(clientDomain),
		To:        vo.CASAddr(),
		Action:    "cas:request",
		Timestamp: at,
		Body:      body,
	}))
	out := Outcome{Latency: call.Elapsed, Messages: call.Messages, Bytes: call.Bytes}
	if err != nil {
		out.Decision = policy.DecisionIndeterminate
		out.Err = err
		return nil, out
	}
	a, err := assertion.UnmarshalXML(reply.Body)
	if err != nil {
		out.Decision = policy.DecisionIndeterminate
		out.Err = err
		return nil, out
	}
	out.Allowed = true
	out.Decision = policy.DecisionPermit
	return a, out
}

// RequestWithCapability presents a previously issued capability to the
// resource PEP (steps III-IV of Fig. 2). Validation is local to the PEP:
// no PDP round-trip occurs.
func (vo *VO) RequestWithCapability(ctx context.Context, clientDomain string, req *policy.Request, cap *assertion.Assertion, at time.Time) Outcome {
	resourceDomain := ""
	if bag, ok := req.Get(policy.CategoryResource, policy.AttrResourceDomain); ok && !bag.Empty() {
		resourceDomain = bag[0].String()
	}
	d, ok := vo.Domain(resourceDomain)
	if !ok {
		return Outcome{Decision: policy.DecisionIndeterminate,
			Err: fmt.Errorf("federation: resource domain %q: %w", resourceDomain, ErrUnknownDomain)}
	}
	capBody, err := assertion.MarshalXML(cap)
	if err != nil {
		return Outcome{Decision: policy.DecisionIndeterminate, Err: err}
	}
	call := &wire.Call{}
	env := armDeadline(ctx, &wire.Envelope{
		From:      ClientAddr(clientDomain),
		To:        PEPAddr(resourceDomain) + ".push",
		Action:    "resource:access-with-capability",
		Timestamp: at,
		Body:      capBody,
	})
	// The push endpoint is registered lazily per domain.
	vo.ensurePushEndpoint(d)
	reply, err := vo.Net.Send(ctx, call, env)
	out := Outcome{Latency: call.Elapsed, Messages: call.Messages, Bytes: call.Bytes}
	if err != nil {
		out.Decision = policy.DecisionIndeterminate
		out.Err = err
		return out
	}
	res, err := xacml.UnmarshalResponseJSON(reply.Body)
	if err != nil {
		out.Decision = policy.DecisionIndeterminate
		out.Err = err
		return out
	}
	out.Decision = res.Decision
	out.By = res.By
	if res.Decision == policy.DecisionPermit {
		out.Allowed = true
	} else {
		out.Err = fmt.Errorf("federation: capability access: %s: %w", res.Decision, ErrDenied)
	}
	// The push endpoint cannot see the original request; sufficiency is
	// validated against the capability's own statement, so bind the
	// outcome to the request here.
	if out.Allowed && (cap.Decision == nil || cap.Decision.Resource != req.ResourceID() || cap.Decision.Action != req.ActionID() || cap.Subject != req.SubjectID()) {
		out.Allowed = false
		out.Decision = policy.DecisionDeny
		out.Err = fmt.Errorf("federation: capability does not match request: %w", ErrDenied)
	}
	return out
}

func (vo *VO) ensurePushEndpoint(d *Domain) {
	name := PEPAddr(d.Name) + ".push"
	validator := capability.NewValidator(vo.Trust, PEPAddr(d.Name), vo.capCert)
	vo.Net.Register(name, func(ctx context.Context, call *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
		a, err := assertion.UnmarshalXML(env.Body)
		var res policy.Result
		if err != nil {
			res = policy.Result{Decision: policy.DecisionIndeterminate, Err: err}
		} else if a.Decision == nil {
			res = policy.Result{Decision: policy.DecisionDeny, Err: capability.ErrNoDecision, By: a.Issuer}
		} else if verr := validator.ValidateCapability(a, a.Decision.Resource, a.Decision.Action, env.Timestamp); verr != nil {
			res = policy.Result{Decision: policy.DecisionDeny, Err: verr, By: a.Issuer}
		} else {
			res = policy.Result{Decision: policy.DecisionPermit, By: a.Issuer}
		}
		subject, resource, action := "", "", ""
		if a != nil {
			subject = a.Subject
			if a.Decision != nil {
				resource, action = a.Decision.Resource, a.Decision.Action
			}
		}
		vo.Audit.Record(audit.Event{
			Time: env.Timestamp, Domain: d.Name, Component: name,
			Subject: subject, Resource: resource, Action: action,
			Decision: res.Decision, By: res.By,
			TraceID: trace.CurrentID(ctx),
		})
		body, err := xacml.MarshalResponseJSON(res)
		if err != nil {
			return nil, err
		}
		return &wire.Envelope{Action: "resource:response", Timestamp: env.Timestamp, Body: body}, nil
	})
}
