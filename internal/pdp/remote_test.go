package pdp

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/xacml"
)

// newRemotePDP serves an engine over the envelope HTTP binding, the
// cmd/pdpd deployment in miniature.
func newRemotePDP(t *testing.T) *httptest.Server {
	t.Helper()
	engine := New("remote")
	if err := engine.SetRoot(rolePolicy()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(wire.HTTPHandler(Handler(engine)))
	t.Cleanup(srv.Close)
	return srv
}

func TestRemoteClientRoundTrip(t *testing.T) {
	srv := newRemotePDP(t)
	client := NewClient(srv.URL, "pep.test", "pdp.remote")
	at := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)

	doctor := policy.NewAccessRequest("alice", "rec-1", "read").
		Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String("doctor"))
	res := policy.Decide(context.Background(), client, doctor, at)
	if res.Decision != policy.DecisionPermit {
		t.Fatalf("remote decision = %v (%v), want Permit", res.Decision, res.Err)
	}
	if res.By == "" {
		t.Error("decider attribution lost in transit")
	}

	visitor := policy.NewAccessRequest("eve", "rec-1", "read")
	if res := policy.Decide(context.Background(), client, visitor, time.Time{}); res.Decision != policy.DecisionDeny {
		t.Errorf("visitor decision = %v, want Deny", res.Decision)
	}
}

func TestRemoteClientFailsClosed(t *testing.T) {
	// A dead endpoint must produce Indeterminate (which deny-biased PEPs
	// refuse), never a permit and never a panic.
	srv := newRemotePDP(t)
	srv.Close()
	client := NewClient(srv.URL, "pep.test", "pdp.remote")
	res := policy.Decide(context.Background(), client, policy.NewAccessRequest("alice", "rec-1", "read"), time.Time{})
	if res.Decision != policy.DecisionIndeterminate || res.Err == nil {
		t.Errorf("dead PDP: got %+v, want Indeterminate with error", res)
	}
}

// TestLostRemoteKeepsTrace: with head sampling off, a decision the lost
// remote PDP leaves Indeterminate force-retains its trace, single and
// batch alike, and the trace's pdp.remote span reads the Indeterminate.
func TestLostRemoteKeepsTrace(t *testing.T) {
	srv := newRemotePDP(t)
	srv.Close()
	client := NewClient(srv.URL, "pep.test", "pdp.remote")
	for _, tc := range []struct {
		name string
		n    int
	}{{"single", 1}, {"batch", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			tracer := trace.NewTracer(trace.Options{Sample: 0})
			ctx, root := tracer.StartRoot(context.Background(), "test")
			reqs := make([]*policy.Request, tc.n)
			for i := range reqs {
				reqs[i] = policy.NewAccessRequest(fmt.Sprintf("user-%d", i), "rec-1", "read")
			}
			for i, res := range policy.DecideBatch(ctx, client, reqs, time.Time{}) {
				if res.Decision != policy.DecisionIndeterminate {
					t.Fatalf("request %d: %v, want Indeterminate", i, res.Decision)
				}
			}
			root.End()
			if st := tracer.Stats(); st.KeptForced != 1 {
				t.Fatalf("stats = %+v, want exactly one forced trace", st)
			}
			var remote []trace.Attr
			for _, sp := range tracer.Recent(1)[0].Spans {
				if sp.Name == "pdp.remote" {
					remote = sp.Attrs
				}
			}
			if !slices.Contains(remote, trace.Attr{Key: "pdp.decision", Value: "Indeterminate"}) {
				t.Fatalf("pdp.remote span attrs = %v, want pdp.decision=Indeterminate", remote)
			}
		})
	}
}

func TestRemoteClientRejectsGarbageEndpoint(t *testing.T) {
	// An endpoint that answers non-envelope bodies fails closed too.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("I am not an envelope"))
	}))
	defer srv.Close()
	client := NewClient(srv.URL, "pep.test", "pdp.remote")
	res := policy.Decide(context.Background(), client, policy.NewAccessRequest("alice", "rec-1", "read"), time.Time{})
	if res.Decision != policy.DecisionIndeterminate {
		t.Errorf("garbage endpoint: got %v, want Indeterminate", res.Decision)
	}
}

func TestHandlerRejectsUndecodableContext(t *testing.T) {
	engine := New("remote")
	if err := engine.SetRoot(rolePolicy()); err != nil {
		t.Fatal(err)
	}
	h := Handler(engine)
	_, err := h(context.Background(), &wire.Call{}, &wire.Envelope{Body: []byte("neither xml nor json")})
	if err == nil {
		t.Error("undecodable context must error")
	}
}

// The request context's codec is read off its first byte and the body is
// parsed once: a malformed XML request reports the XML error (it used to
// be re-parsed as JSON and report only that), a malformed JSON request
// the JSON error, anything else neither.
func TestDecodeRequestContextSniffsCodec(t *testing.T) {
	req := policy.NewAccessRequest("alice", "rec-1", "read")
	xmlBody, err := xacml.MarshalRequestXML(req)
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, err := xacml.MarshalRequestJSON(req)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"xml": xmlBody, "json": jsonBody, "padded xml": append([]byte(" \r\n\t"), xmlBody...)} {
		got, err := decodeRequestContext(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.CacheKey() != req.CacheKey() {
			t.Errorf("%s: decoded %s, want %s", name, got.CacheKey(), req.CacheKey())
		}
	}
	for _, tt := range []struct{ name, body, want, not string }{
		{"malformed xml", `<Request><Attributes Category="subject"></Request>`, "xmlscan", "json"},
		{"bad xml value", `<Request><Attributes Category="nowhere"/></Request>`, "unknown category", "json"},
		{"malformed json", `{"subject":`, "json", "xmlscan"},
		{"neither", "subject=alice", "neither an XML nor a JSON document", "xmlscan"},
		{"empty", "", "neither an XML nor a JSON document", "xmlscan"},
	} {
		_, err := decodeRequestContext([]byte(tt.body))
		if err == nil {
			t.Errorf("%s: accepted", tt.name)
			continue
		}
		if msg := strings.ToLower(err.Error()); !strings.Contains(msg, strings.ToLower(tt.want)) || strings.Contains(msg, tt.not) {
			t.Errorf("%s: error %q, want it to mention %q and not %q", tt.name, err, tt.want, tt.not)
		}
	}
}

type permitAll struct{}

func (permitAll) DecideScatterAt(_ context.Context, reqs []*policy.Request, positions []int, _ time.Time, _ policy.Resolver, out []policy.Result) {
	for i := range reqs {
		if positions == nil || slices.Contains(positions, i) {
			out[i] = policy.Result{Decision: policy.DecisionPermit, By: "res-policy-7/permit-owner"}
		}
	}
}

// TestServeBatchAllocs guards the daemon's codec pass over one
// 64-request /decide-batch envelope — decode the envelope and its frame,
// decode every request context, encode every response context, the reply
// frame and the reply envelope. The reflective codecs took 12 000, the
// unpooled buffers and map-backed requests 605.
func TestServeBatchAllocs(t *testing.T) {
	docs := make([][]byte, 64)
	for i := range docs {
		var err error
		docs[i], err = xacml.MarshalRequestXML(policy.NewAccessRequest(fmt.Sprintf("user-%d", 1000+i), fmt.Sprintf("res-%d", i), "read"))
		if err != nil {
			t.Fatal(err)
		}
	}
	frame, err := wire.EncodeBodies(docs)
	if err != nil {
		t.Fatal(err)
	}
	posted, err := (&wire.Envelope{MessageID: "m", From: "pep", To: "pdpd", Action: "pdp:decide-batch",
		Timestamp: time.Unix(1700000000, 0).UTC(), Body: frame}).EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	h := BatchHandler(permitAll{})
	allocs := testing.AllocsPerRun(50, func() {
		env, err := wire.DecodeXML(posted)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := h(context.Background(), &wire.Call{}, env)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reply.EncodeXML(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 330 {
		t.Errorf("serving a 64-request batch: %.0f allocs, want <= 330", allocs)
	}
}
