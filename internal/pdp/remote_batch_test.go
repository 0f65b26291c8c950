package pdp

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/wire"
)

func TestRemoteBatchRoundTrip(t *testing.T) {
	engine := New("remote")
	if err := engine.SetRoot(rolePolicy()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(wire.HTTPHandler(BatchHandler(engine)))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, "pep.test", "pdp.remote")
	at := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)

	reqs := []*policy.Request{
		policy.NewAccessRequest("alice", "rec-1", "read").
			Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String("doctor")),
		policy.NewAccessRequest("eve", "rec-1", "read"),
	}
	results := policy.DecideBatch(context.Background(), client, reqs, at)
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].Decision != policy.DecisionPermit {
		t.Errorf("doctor decision = %v (%v), want Permit", results[0].Decision, results[0].Err)
	}
	if results[1].Decision != policy.DecisionDeny {
		t.Errorf("visitor decision = %v, want Deny", results[1].Decision)
	}
	if got := policy.DecideBatch(context.Background(), client, nil, at); got != nil {
		t.Errorf("empty batch returned %v", got)
	}
}

func TestRemoteBatchFailsClosed(t *testing.T) {
	engine := New("remote")
	if err := engine.SetRoot(rolePolicy()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(wire.HTTPHandler(BatchHandler(engine)))
	srv.Close()
	client := NewClient(srv.URL, "pep.test", "pdp.remote")
	results := policy.DecideBatch(context.Background(), client, []*policy.Request{
		policy.NewAccessRequest("alice", "rec-1", "read"),
	}, time.Now())
	if len(results) != 1 || results[0].Decision != policy.DecisionIndeterminate || results[0].Err == nil {
		t.Errorf("dead batch endpoint: got %+v, want Indeterminate with error", results)
	}
}

func TestBatchHandlerRejectsBadFrame(t *testing.T) {
	engine := New("remote")
	if err := engine.SetRoot(rolePolicy()); err != nil {
		t.Fatal(err)
	}
	h := BatchHandler(engine)
	if _, err := h(context.Background(), &wire.Call{}, &wire.Envelope{Body: []byte("not a frame")}); err == nil {
		t.Error("undecodable batch frame must error")
	}
}
