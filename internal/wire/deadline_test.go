package wire

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"
)

// Deadline-budget semantics of the messaging substrate: the envelope
// carries the sender's remaining budget, the simulated network enforces it
// on the call's virtual clock, and the HTTP binding arms a real context
// from it on the receiving side.

func TestEnvelopeDeadlineRoundTripsXML(t *testing.T) {
	env := &Envelope{
		MessageID: "m1", From: "pep", To: "pdp", Action: "pdp:decide",
		Timestamp: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		Deadline:  1500 * time.Millisecond,
		Body:      []byte("ctx"),
	}
	data, err := env.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Deadline != env.Deadline {
		t.Fatalf("deadline %v survived as %v", env.Deadline, back.Deadline)
	}
}

// TestCanonicalCoversDeadline: the signed bytes must pin the deadline so a
// relay cannot stretch a budget the sender signed.
func TestCanonicalCoversDeadline(t *testing.T) {
	a := &Envelope{MessageID: "m", From: "a", To: "b", Action: "x", Deadline: time.Second}
	b := &Envelope{MessageID: "m", From: "a", To: "b", Action: "x", Deadline: 2 * time.Second}
	if string(a.Canonical()) == string(b.Canonical()) {
		t.Fatal("canonical bytes identical for different deadlines")
	}
}

// TestVirtualDeadlineBoundsExchange is the satellite requirement: a
// wire-propagated deadline shorter than the injected network latency
// yields an error the decision pipeline surfaces as Indeterminate — not a
// hang, and not an answer. The virtual clock makes the "50ms link, 10ms
// budget" exchange instantaneous in real time.
func TestVirtualDeadlineBoundsExchange(t *testing.T) {
	n := NewNetwork(50*time.Millisecond, 1)
	n.Register("pdp", echoNode)
	call := &Call{}
	start := time.Now()
	_, err := n.Send(context.Background(), call, &Envelope{
		From: "pep", To: "pdp", Action: "pdp:decide",
		Deadline: 10 * time.Millisecond,
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("virtual deadline burned real time")
	}
}

// TestVirtualDeadlineSharedAcrossHops: nested sends on one call spend the
// one budget — a 60ms budget covers the first 25ms round-trip hop pair but
// not a second one.
func TestVirtualDeadlineSharedAcrossHops(t *testing.T) {
	n := NewNetwork(25*time.Millisecond, 1)
	n.Register("pip", echoNode)
	n.Register("pdp", func(ctx context.Context, call *Call, env *Envelope) (*Envelope, error) {
		// The PDP consults a PIP on the same call before answering.
		if _, err := n.Send(ctx, call, &Envelope{From: "pdp", To: "pip", Action: "idp:query"}); err != nil {
			return nil, err
		}
		return &Envelope{Action: "pdp:decision", Timestamp: env.Timestamp}, nil
	})
	call := &Call{}
	_, err := n.Send(context.Background(), call, &Envelope{
		From: "pep", To: "pdp", Action: "pdp:decide",
		Deadline: 60 * time.Millisecond,
	})
	// pep->pdp (25) + pdp->pip (25) fit; pip->pdp (25) busts the 60ms
	// budget: the nested reply hop fails, and the failure propagates.
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline on the nested hop", err)
	}
	if rem, ok := call.Remaining(); !ok || rem != 0 {
		t.Fatalf("Remaining() = %v, %v; want 0, true after exhaustion", rem, ok)
	}
}

// TestSendHonoursCanceledContext: a dead caller sends nothing.
func TestSendHonoursCanceledContext(t *testing.T) {
	n := NewNetwork(time.Millisecond, 1)
	n.Register("pdp", echoNode)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Send(ctx, &Call{}, &Envelope{From: "a", To: "pdp", Action: "x"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := n.Stats(); st.Messages != 0 {
		t.Fatalf("%d messages accepted from a canceled caller", st.Messages)
	}
}

// TestHTTPDeadlinePropagation: the client writes its remaining ctx budget
// into the envelope (and header), and the serving side arms a context that
// expires accordingly — a slow handler observes ctx.Done instead of
// finishing late.
func TestHTTPDeadlinePropagation(t *testing.T) {
	gotBudget := make(chan time.Duration, 1)
	handlerCtxExpired := make(chan bool, 1)
	srv := httptest.NewServer(HTTPHandler(func(ctx context.Context, call *Call, env *Envelope) (*Envelope, error) {
		gotBudget <- env.Deadline
		select {
		case <-ctx.Done():
			handlerCtxExpired <- true
		case <-time.After(5 * time.Second):
			handlerCtxExpired <- false
		}
		return nil, ctx.Err()
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	client := &HTTPClient{Endpoint: srv.URL}
	_, err := client.Send(ctx, &Envelope{
		MessageID: "m1", From: "pep", To: "pdp", Action: "pdp:decide",
		Timestamp: time.Now(),
	})
	if err == nil {
		t.Fatal("expected an error once the budget expired")
	}
	budget := <-gotBudget
	if budget <= 0 || budget > 200*time.Millisecond {
		t.Fatalf("propagated budget = %v, want (0, 200ms]", budget)
	}
	if expired := <-handlerCtxExpired; !expired {
		t.Fatal("server-side context never expired; deadline was not armed downstream")
	}
}
