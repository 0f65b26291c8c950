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
// 3.2 "Location of Policy Decision Points". It is a policy.Decider like an
// in-process engine, so an enforcement point moves from a local engine to
// a remote one by swapping a constructor.
//
// Transport failures surface as Indeterminate decisions, which deny-biased
// enforcement points refuse — losing the PDP fails closed, never open.
type Client struct {
	http *wire.HTTPClient
	from string
	to   string
}

// NewClient builds a client for the PDP at the given envelope endpoint
// (e.g. "http://pdp.example:8080/decide"). from names this enforcement
// point in envelope headers; to names the decision point. One selected
// request travels as pdp:decide, more as one pdp:decide-batch envelope;
// cmd/pdpd serves both actions on either path.
func NewClient(endpoint, from, to string) *Client {
	return &Client{
		http: &wire.HTTPClient{Endpoint: endpoint},
		from: from,
		to:   to,
	}
}

// DecideScatterAt implements policy.Decider over the wire: one selected
// position is sent as a pdp:decide envelope, more as one pdp:decide-batch
// envelope carrying the selection. at stamps the envelope (zero: the
// current time); the remote engine evaluates at its own clock and
// resolves attributes itself, as a real deployment would, so resolver is
// ignored. ctx bounds the round-trip, and its remaining deadline budget
// travels in the envelope so the remote PDP arms the same deadline (see
// wire.HTTPClient.Send) — a dead or slow PDP yields Indeterminate within
// the budget instead of hanging the enforcement point. A transport or
// decode failure fails the selection closed and, like any Indeterminate
// answer, force-retains the trace through the pdp.remote span.
func (c *Client) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, at time.Time, _ policy.Resolver, out []policy.Result) {
	// The wire carries only the selection: compact it when positions pick
	// from reqs.
	sel, results := reqs, out[:len(reqs)]
	if positions != nil {
		sel, results = make([]*policy.Request, len(positions)), make([]policy.Result, len(positions))
		for k, p := range positions {
			sel[k] = reqs[p]
		}
	}
	if len(sel) == 0 {
		return
	}
	if at.IsZero() {
		at = time.Now()
	}
	ctx, sp := trace.StartSpan(ctx, "pdp.remote")
	defer sp.End()
	sp.SetAttr("rpc.to", c.to)
	if len(sel) > 1 {
		sp.SetInt("batch.n", int64(len(sel)))
	}
	if err := c.call(ctx, sel, at, results); err != nil {
		res := policy.Result{Decision: policy.DecisionIndeterminate, Err: fmt.Errorf("pdp client: %w", err)}
		for k := range results {
			results[k] = res
		}
	}
	for k, p := range positions {
		out[p] = results[k]
	}
	// The span reads the first Indeterminate answer if there is one: a
	// lost-PDP trace is the one worth reading.
	shown := results[0]
	for _, res := range results {
		if res.Decision == policy.DecisionIndeterminate {
			shown = res
			break
		}
	}
	annotateResultSpan(sp, shown)
}

// call sends sel in one envelope and decodes result k of sel into
// results[k]. An error fails the whole call; a single undecodable reply
// fails only its own position.
func (c *Client) call(ctx context.Context, sel []*policy.Request, at time.Time, results []policy.Result) error {
	bodies := make([][]byte, len(sel))
	for i, req := range sel {
		b, err := xacml.MarshalRequestXML(req)
		if err != nil {
			return fmt.Errorf("encode request %d: %w", i, err)
		}
		bodies[i] = b
	}
	action, body := "pdp:decide", bodies[0]
	if len(sel) > 1 {
		frame, err := wire.EncodeBodies(bodies)
		if err != nil {
			return err
		}
		action, body = "pdp:decide-batch", frame
	}
	reply, err := c.http.Send(ctx, &wire.Envelope{
		MessageID: fmt.Sprintf("%s-%d", c.from, at.UnixNano()),
		From:      c.from,
		To:        c.to,
		Action:    action,
		Timestamp: at,
		Body:      body,
	})
	if err != nil {
		return err
	}
	if reply == nil {
		return fmt.Errorf("empty reply from %s", c.to)
	}
	replies := [][]byte{reply.Body}
	if len(sel) > 1 {
		if replies, err = wire.DecodeBodies(reply.Body); err != nil {
			return err
		}
		if len(replies) != len(sel) {
			return fmt.Errorf("%d replies for %d requests", len(replies), len(sel))
		}
	}
	for i, b := range replies {
		res, err := xacml.UnmarshalResponseXML(b)
		if err != nil {
			res = policy.Result{Decision: policy.DecisionIndeterminate,
				Err: fmt.Errorf("pdp client: decode response %d: %w", i, err)}
		}
		results[i] = res
	}
	return nil
}

// Handler adapts a decision provider to the envelope endpoint the Client
// speaks, shared by cmd/pdpd and tests. It accepts XML or JSON request
// contexts and answers XML response contexts, deciding at the provider's
// clock. The handler ctx — carrying the deadline the transport armed from
// the envelope's budget — bounds the decision. An envelope whose action
// is pdp:decide-batch is served as BatchHandler serves it, so a Client
// aimed at either endpoint is answered whatever it selected.
func Handler(p policy.Decider) wire.Handler { return serve(p, false) }

// BatchHandler serves the pdp:decide-batch action: the envelope body is a
// wire batch frame of request contexts; the reply is a frame of response
// contexts in the same order, decided at the provider's clock. Clusters
// use it to amortise transport and evaluation overhead across a whole
// burst of queries. An envelope whose action is pdp:decide is served as
// Handler serves it.
func BatchHandler(p policy.Decider) wire.Handler { return serve(p, true) }

// serve answers both decision actions; an envelope naming neither takes
// the endpoint's own form (a frame when batch is set).
func serve(p policy.Decider, batch bool) wire.Handler {
	return func(ctx context.Context, call *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
		if env.Action == "pdp:decide-batch" || batch && env.Action != "pdp:decide" {
			return serveBatch(ctx, p, call, env)
		}
		return serveOne(ctx, p, call, env)
	}
}

func serveOne(ctx context.Context, p policy.Decider, call *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
	req, err := decodeRequestContext(env.Body)
	if err != nil {
		return nil, err
	}
	res := policy.Decide(ctx, p, req, time.Time{})
	// Annotate the serving hop's span (opened by the transport when the
	// envelope carried trace headers) so the caller's stitched trace shows
	// the decision this hop produced.
	annotateResultSpan(trace.FromContext(ctx), res)
	body := call.Buffer()
	*body = xacml.AppendResponseXML(*body, res)
	return &wire.Envelope{Action: "pdp:decision", Timestamp: env.Timestamp, Body: *body}, nil
}

func serveBatch(ctx context.Context, p policy.Decider, call *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
	// The request bodies and then the reply documents live in one pooled
	// scratch buffer: both are dead once the reply frame is built.
	// Requests own their strings, so a decider still reading them after
	// the handler returns reads none of it.
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
	results := policy.DecideBatch(ctx, p, reqs, time.Time{})
	// Every reply is encoded into the scratch buffer, over the decoded
	// request bodies, and the bodies' slice is reused for the replies. A
	// reply sliced off before the buffer moves keeps the old array, which
	// holds its bytes unchanged.
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
