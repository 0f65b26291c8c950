package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"repro/internal/trace"
)

// DeadlineHeader is the HTTP header carrying the remaining deadline budget
// in milliseconds, mirroring the envelope's Deadline field so
// intermediaries that never decode the envelope (load balancers, access
// logs) can still observe and enforce the budget.
const DeadlineHeader = "X-Deadline-Budget-Ms"

// maxBodyBytes bounds an envelope on the HTTP binding, in either
// direction.
const maxBodyBytes = 10 << 20

// readBody reads a message body whole: into dst's storage, sized to the
// declared length, when there is one (r is already limited to
// maxBodyBytes or just over), otherwise until EOF. The buffer is returned
// on error too, so a pooled one can go back.
func readBody(dst []byte, r io.Reader, contentLength int64) ([]byte, error) {
	if contentLength < 0 || contentLength > maxBodyBytes {
		return io.ReadAll(r)
	}
	dst = slices.Grow(dst[:0], int(contentLength))[:contentLength]
	_, err := io.ReadFull(r, dst)
	return dst, err
}

// HTTPOption configures the HTTP binding.
type HTTPOption func(*httpConfig)

type httpConfig struct {
	tracer *trace.Tracer
}

// WithTracer gives the serving side a local tracer. Requests that arrive
// without trace headers are then rooted (and head-sampled) here, so a
// standalone PDP daemon collects its own traces even when its callers do
// not trace. Requests that do carry a TraceID always join the caller's
// trace instead — the caller owns retention.
func WithTracer(t *trace.Tracer) HTTPOption {
	return func(c *httpConfig) { c.tracer = t }
}

// HTTPHandler adapts an envelope Handler to net/http, the real-network
// binding used by cmd/pdpd. Envelopes travel as XML request and response
// bodies over POST.
//
// The handler arms the downstream deadline: the request context (which
// net/http cancels when the client disconnects) is bounded further by the
// envelope's Deadline budget — or, absent one, by the DeadlineHeader — so
// the decision work a remote PEP paid for is abandoned the moment its
// budget runs out, not when the PDP happens to finish.
//
// Tracing: when the envelope carries a TraceID, the handler joins that
// trace — the work here runs under a span parented on the caller's
// TraceParent, and every span recorded this hop is exported into the
// reply's (unsigned) TraceSpans header for the caller to stitch.
func HTTPHandler(h Handler, opts ...HTTPOption) http.Handler {
	var cfg httpConfig
	for _, o := range opts {
		o(&cfg)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		// The body read, the envelope Body decoded from it and the reply
		// encoding are pooled: none outlives the exchange (see Handler on
		// env.Body), so all go back once the reply is written.
		data, body, out := requestBodies.get(), envelopeBodies.get(), encodings.get()
		defer requestBodies.put(data)
		defer envelopeBodies.put(body)
		defer encodings.put(out)
		var err error
		*data, err = readBody(*data, http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
		if err != nil {
			status := http.StatusBadRequest
			if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), status)
			return
		}
		env, err := decodeXML(*data, *body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		*body = env.Body // keep a grown Body's storage for the pool
		ctx := r.Context()
		budget := env.Deadline
		if budget <= 0 {
			if ms, err := strconv.ParseInt(r.Header.Get(DeadlineHeader), 10, 64); err == nil && ms > 0 {
				budget = time.Duration(ms) * time.Millisecond
			}
		}
		if budget > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, budget)
			defer cancel()
		}
		// Join the caller's trace, or root a local one when this daemon
		// traces on its own behalf.
		var hop *trace.Span
		joined := false
		if env.TraceID != "" {
			if jctx, sp, jerr := trace.JoinRemote(ctx, env.TraceID, env.TraceParent, "serve "+env.Action); jerr == nil {
				ctx, hop, joined = jctx, sp, true
			}
		} else if cfg.tracer != nil {
			ctx, hop = cfg.tracer.StartRoot(ctx, "serve "+env.Action)
		}
		hop.SetAttr("wire.from", env.From)
		call := &Call{Deadline: budget, pooling: true}
		defer call.release()
		reply, err := h(ctx, call, env)
		hop.End()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if reply == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if joined {
			// Appended after the handler, outside any signature the
			// handler applied — TraceSpans is deliberately unsigned.
			reply.TraceSpans = trace.Export(hop)
		}
		reply.From, reply.To = env.To, env.From
		if reply.MessageID == "" {
			reply.MessageID = env.MessageID + "-reply"
		}
		*out = reply.appendXML(*out)
		w.Header().Set("Content-Type", "application/xml")
		_, _ = w.Write(*out) // a failed write is the client's broken connection
	})
}

// defaultHTTPClient serves every HTTPClient without its own Client. It
// holds no per-call state, so one value is shared.
var defaultHTTPClient = &http.Client{Timeout: 10 * time.Second}

// HTTPClient sends envelopes to a remote envelope endpoint.
type HTTPClient struct {
	// Endpoint is the full URL of the envelope endpoint.
	Endpoint string
	// Client is the underlying HTTP client; nil uses a 10-second-timeout
	// default.
	Client *http.Client
}

// Send posts the envelope and decodes the reply. ctx bounds the round-trip
// and propagates the caller's remaining deadline budget downstream: when
// ctx carries a deadline and the envelope does not already state one, the
// remaining budget is written into the envelope's Deadline header and the
// DeadlineHeader HTTP header, so the receiving PDP arms the same deadline
// this caller is counting down.
func (c *HTTPClient) Send(ctx context.Context, env *Envelope) (*Envelope, error) {
	// Propagate the caller's trace. The IDs live in the signed header
	// block, so they are injected only into not-yet-protected envelopes;
	// a caller that signs its envelopes sets them before Protect. The rpc
	// span becomes the parent of the remote hop's spans.
	ctx, rpc := trace.StartSpan(ctx, "wire.send "+env.Action)
	defer rpc.End()
	rpc.SetAttr("wire.to", env.To)
	if rpc != nil && env.TraceID == "" && env.Security == nil {
		env.TraceID = rpc.TraceID.String()
		env.TraceParent = rpc.ID.String()
	}
	if dl, ok := ctx.Deadline(); ok && env.Deadline <= 0 {
		if rem := time.Until(dl); rem > 0 {
			env.Deadline = rem
		} else {
			return nil, fmt.Errorf("wire: post %s: %w", c.Endpoint, context.DeadlineExceeded)
		}
	}
	data, err := env.EncodeXML()
	if err != nil {
		return nil, err
	}
	httpClient := c.Client
	if httpClient == nil {
		httpClient = defaultHTTPClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Endpoint, bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("wire: post %s: %w", c.Endpoint, err)
	}
	req.Header.Set("Content-Type", "application/xml")
	if env.Deadline > 0 {
		req.Header.Set(DeadlineHeader, strconv.FormatInt(env.Deadline.Milliseconds(), 10))
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("wire: post %s: %w", c.Endpoint, err)
	}
	defer func() { _ = resp.Body.Close() }()
	// One byte past the limit tells an oversize reply from a full one.
	body, err := readBody(nil, io.LimitReader(resp.Body, maxBodyBytes+1), resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("wire: read reply: %w", err)
	}
	if len(body) > maxBodyBytes {
		return nil, fmt.Errorf("wire: %s: reply too large (over %d bytes)", c.Endpoint, maxBodyBytes)
	}
	if resp.StatusCode == http.StatusNoContent {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		rpc.SetAttr("error", resp.Status)
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
			// Admission rejection: the server is alive but shedding. The
			// sentinel lets callers (and the load harness) count these
			// separately from unreachability and deadline expiry.
			return nil, fmt.Errorf("wire: %s returned %s: %s: %w", c.Endpoint, resp.Status, body, ErrOverload)
		}
		return nil, fmt.Errorf("wire: %s returned %s: %s", c.Endpoint, resp.Status, body)
	}
	reply, err := DecodeXML(body)
	if err != nil {
		return nil, err
	}
	// Stitch the remote hop's spans into this trace.
	if len(reply.TraceSpans) > 0 {
		_ = trace.Merge(ctx, reply.TraceSpans)
	}
	return reply, nil
}
