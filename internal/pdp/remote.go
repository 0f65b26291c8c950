package pdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/xacml"
)

// Client is a decision provider backed by a remote PDP's envelope endpoint
// (the deployment cmd/pdpd serves): the static PEP→PDP binding of Section
// 3.2 "Location of Policy Decision Points". It satisfies the
// DecisionProvider interfaces of the pep, rest and capability packages, so
// an enforcement point moves from an in-process engine to a remote one by
// swapping a constructor.
//
// Transport failures surface as Indeterminate decisions, which deny-biased
// enforcement points refuse — losing the PDP fails closed, never open.
type Client struct {
	http *wire.HTTPClient
	from string
	to   string
	now  func() time.Time
}

// NewClient builds a client for the PDP at the given envelope endpoint
// (e.g. "http://pdp.example:8080/decide"). from names this enforcement
// point in envelope headers; to names the decision point.
func NewClient(endpoint, from, to string) *Client {
	return &Client{
		http: &wire.HTTPClient{Endpoint: endpoint},
		from: from,
		to:   to,
		now:  time.Now,
	}
}

// WithClock overrides the message-ID clock, used by deterministic tests.
func (c *Client) WithClock(now func() time.Time) *Client {
	c.now = now
	return c
}

// Decide queries the remote PDP at the current time.
func (c *Client) Decide(ctx context.Context, req *policy.Request) policy.Result {
	return c.DecideAt(ctx, req, c.now())
}

// DecideAt queries the remote PDP. The at time stamps the envelope; the
// remote engine evaluates at its own clock, as a real deployment would.
// ctx bounds the round-trip, and its remaining deadline budget travels in
// the envelope so the remote PDP arms the same deadline (see
// wire.HTTPClient.Send) — a dead or slow PDP yields Indeterminate within
// the budget instead of hanging the enforcement point.
func (c *Client) DecideAt(ctx context.Context, req *policy.Request, at time.Time) policy.Result {
	ctx, sp := trace.StartSpan(ctx, "pdp.remote")
	defer sp.End()
	sp.SetAttr("rpc.to", c.to)
	body, err := xacml.MarshalRequestXML(req)
	if err != nil {
		return policy.Result{Decision: policy.DecisionIndeterminate,
			Err: fmt.Errorf("pdp client: encode request: %w", err)}
	}
	reply, err := c.http.Send(ctx, &wire.Envelope{
		MessageID: fmt.Sprintf("%s-%d", c.from, at.UnixNano()),
		From:      c.from,
		To:        c.to,
		Action:    "pdp:decide",
		Timestamp: at,
		Body:      body,
	})
	if err != nil {
		res := policy.Result{Decision: policy.DecisionIndeterminate,
			Err: fmt.Errorf("pdp client: %w", err)}
		annotateResultSpan(sp, res)
		return res
	}
	if reply == nil {
		res := policy.Result{Decision: policy.DecisionIndeterminate,
			Err: fmt.Errorf("pdp client: empty reply from %s", c.to)}
		annotateResultSpan(sp, res)
		return res
	}
	res, err := xacml.UnmarshalResponseXML(reply.Body)
	if err != nil {
		res = policy.Result{Decision: policy.DecisionIndeterminate,
			Err: fmt.Errorf("pdp client: decode response: %w", err)}
	}
	// A transport or decode failure surfaced as Indeterminate forces
	// retention via annotateResultSpan — lost-PDP traces are the ones
	// worth reading.
	annotateResultSpan(sp, res)
	return res
}

// DecideBatchAt queries a remote batch endpoint (cmd/pdpd's
// /decide-batch) with every request in one envelope. Transport failures
// fail every request closed, mirroring DecideAt.
func (c *Client) DecideBatchAt(ctx context.Context, reqs []*policy.Request, at time.Time) []policy.Result {
	if len(reqs) == 0 {
		return nil
	}
	fail := func(err error) []policy.Result {
		out := make([]policy.Result, len(reqs))
		for i := range out {
			out[i] = policy.Result{Decision: policy.DecisionIndeterminate, Err: err}
		}
		return out
	}
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		body, err := xacml.MarshalRequestXML(req)
		if err != nil {
			return fail(fmt.Errorf("pdp client: encode request %d: %w", i, err))
		}
		bodies[i] = body
	}
	frame, err := wire.EncodeBodies(bodies)
	if err != nil {
		return fail(fmt.Errorf("pdp client: %w", err))
	}
	reply, err := c.http.Send(ctx, &wire.Envelope{
		MessageID: fmt.Sprintf("%s-%d", c.from, at.UnixNano()),
		From:      c.from,
		To:        c.to,
		Action:    "pdp:decide-batch",
		Timestamp: at,
		Body:      frame,
	})
	if err != nil {
		return fail(fmt.Errorf("pdp client: %w", err))
	}
	if reply == nil {
		return fail(fmt.Errorf("pdp client: empty reply from %s", c.to))
	}
	replies, err := wire.DecodeBodies(reply.Body)
	if err != nil {
		return fail(fmt.Errorf("pdp client: %w", err))
	}
	if len(replies) != len(reqs) {
		return fail(fmt.Errorf("pdp client: %d replies for %d requests", len(replies), len(reqs)))
	}
	out := make([]policy.Result, len(reqs))
	for i, b := range replies {
		res, err := xacml.UnmarshalResponseXML(b)
		if err != nil {
			out[i] = policy.Result{Decision: policy.DecisionIndeterminate,
				Err: fmt.Errorf("pdp client: decode response %d: %w", i, err)}
			continue
		}
		out[i] = res
	}
	return out
}

// Provider is the minimal decision interface Handler serves; *Engine and
// cluster.Router satisfy it, so cmd/pdpd exposes a single engine and a
// sharded cluster through the same endpoint.
type Provider interface {
	Decide(ctx context.Context, req *policy.Request) policy.Result
}

// BatchProvider answers many requests in one pass; result i answers
// request i. *Engine and cluster.Router satisfy it.
type BatchProvider interface {
	DecideBatch(ctx context.Context, reqs []*policy.Request) []policy.Result
}

// Handler adapts a decision provider to the envelope endpoint the Client
// speaks, shared by cmd/pdpd and tests. It accepts XML or JSON request
// contexts and answers XML response contexts. The handler ctx — carrying
// the deadline the transport armed from the envelope's budget — bounds
// the decision.
func Handler(p Provider) wire.Handler {
	return func(ctx context.Context, call *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
		req, err := decodeRequestContext(env.Body)
		if err != nil {
			return nil, err
		}
		res := p.Decide(ctx, req)
		// Annotate the serving hop's span (opened by the transport when
		// the envelope carried trace headers) so the caller's stitched
		// trace shows the decision this hop produced.
		annotateResultSpan(trace.FromContext(ctx), res)
		body := call.Buffer()
		*body = xacml.AppendResponseXML(*body, res)
		return &wire.Envelope{Action: "pdp:decision", Timestamp: env.Timestamp, Body: *body}, nil
	}
}

// BatchHandler serves the pdp:decide-batch action: the envelope body is a
// wire batch frame of request contexts; the reply is a frame of response
// contexts in the same order. Clusters use it to amortise transport and
// evaluation overhead across a whole burst of queries.
func BatchHandler(p BatchProvider) wire.Handler {
	return func(ctx context.Context, call *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
		// The request bodies and then the reply documents live in one
		// pooled scratch buffer: both are dead once the reply frame is
		// built. Requests own their strings, so a hedged loser still
		// reading them after the handler returns reads none of it.
		scratch := wire.GetBuffer()
		defer wire.PutBuffer(scratch)
		bodies, err := wire.DecodeBodiesInto(scratch, env.Body)
		if err != nil {
			return nil, err
		}
		reqs := make([]*policy.Request, len(bodies))
		for i, b := range bodies {
			if reqs[i], err = decodeRequestContext(b); err != nil {
				return nil, fmt.Errorf("pdp: batch item %d: %w", i, err)
			}
		}
		results := p.DecideBatch(ctx, reqs)
		// Every reply is encoded into the scratch buffer, over the decoded
		// request bodies, and the bodies' slice is reused for the replies.
		// A reply sliced off before the buffer moves keeps the old array,
		// which holds its bytes unchanged.
		docs, replies := (*scratch)[:0], bodies[:0]
		for _, res := range results {
			start := len(docs)
			docs = xacml.AppendResponseXML(docs, res)
			replies = append(replies, docs[start:])
		}
		*scratch = docs
		frame := call.Buffer()
		*frame = wire.AppendBodies(*frame, replies)
		return &wire.Envelope{Action: "pdp:decision-batch", Timestamp: env.Timestamp, Body: *frame}, nil
	}
}

// decodeRequestContext decodes a request context in the codec its first
// byte announces: '<' opens an XML document, '{' a JSON one.
func decodeRequestContext(body []byte) (*policy.Request, error) {
	switch trimmed := bytes.TrimLeft(body, " \t\r\n"); {
	case len(trimmed) > 0 && trimmed[0] == '<':
		return xacml.UnmarshalRequestXML(body)
	case len(trimmed) > 0 && trimmed[0] == '{':
		return xacml.UnmarshalRequestJSON(body)
	}
	return nil, errors.New("pdp: undecodable request context: neither an XML nor a JSON document")
}
