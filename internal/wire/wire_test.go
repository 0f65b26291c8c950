package wire

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/pki"
)

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
)

func sampleEnvelope() *Envelope {
	return &Envelope{
		MessageID: "m-1",
		From:      "pep.hospital-a",
		To:        "pdp.hospital-a",
		Action:    "pdp:decide",
		Timestamp: epoch.Add(time.Hour),
		Body:      []byte(`<Request>...</Request>`),
	}
}

func TestEnvelopeXMLRoundTrip(t *testing.T) {
	e := sampleEnvelope()
	e.Security = &SecurityHeader{
		Signer:    "pep.hospital-a",
		Signature: []byte{1, 2, 3, 255},
		Encrypted: true,
		Nonce:     []byte{9, 8, 7},
	}
	data, err := e.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.MessageID != e.MessageID || got.From != e.From || got.To != e.To || got.Action != e.Action {
		t.Errorf("headers diverge: %+v", got)
	}
	if !got.Timestamp.Equal(e.Timestamp) {
		t.Errorf("timestamp diverges: %v", got.Timestamp)
	}
	if string(got.Body) != string(e.Body) {
		t.Errorf("body diverges: %q", got.Body)
	}
	if got.Security == nil || !got.Security.Encrypted || len(got.Security.Signature) != 4 {
		t.Errorf("security header diverges: %+v", got.Security)
	}
}

func TestDecodeXMLErrors(t *testing.T) {
	cases := [][]byte{
		[]byte("not xml"),
		[]byte("<Envelope><Header><Timestamp>not-a-time</Timestamp></Header><Body></Body></Envelope>"),
		[]byte("<Envelope><Header><Timestamp>2026-06-01T00:00:00Z</Timestamp></Header><Body>!!!</Body></Envelope>"),
	}
	for i, data := range cases {
		if _, err := DecodeXML(data); !errors.Is(err, ErrBadEnvelope) {
			t.Errorf("case %d: want ErrBadEnvelope, got %v", i, err)
		}
	}
}

type secFixture struct {
	alice, bob *Security
}

func newSecFixture(t *testing.T) *secFixture {
	t.Helper()
	root, err := pki.NewRootAuthority("ca", newDetRand(1), epoch, later)
	if err != nil {
		t.Fatal(err)
	}
	trust := pki.NewTrustStore()
	trust.AddRoot(root.Certificate())

	aliceKey, _ := pki.GenerateKeyPair(newDetRand(2))
	bobKey, _ := pki.GenerateKeyPair(newDetRand(3))
	aliceCert := root.Issue("pep.hospital-a", aliceKey.Public, epoch, later, false)
	bobCert := root.Issue("pdp.hospital-a", bobKey.Public, epoch, later, false)

	alice := NewSecurity(aliceKey, aliceCert, trust)
	bob := NewSecurity(bobKey, bobCert, trust)
	alice.AddPeer(bobCert)
	bob.AddPeer(aliceCert)
	if err := alice.EstablishSharedKey("pdp.hospital-a"); err != nil {
		t.Fatal(err)
	}
	if err := bob.EstablishSharedKey("pep.hospital-a"); err != nil {
		t.Fatal(err)
	}
	return &secFixture{alice: alice, bob: bob}
}

func TestSignedMessageVerifies(t *testing.T) {
	f := newSecFixture(t)
	e := sampleEnvelope()
	if err := f.alice.Protect(e, Signed); err != nil {
		t.Fatal(err)
	}
	if err := f.bob.Verify(e, Signed, epoch.Add(time.Hour)); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestTamperedMessageRejected(t *testing.T) {
	f := newSecFixture(t)
	e := sampleEnvelope()
	if err := f.alice.Protect(e, Signed); err != nil {
		t.Fatal(err)
	}
	e.Body = []byte("tampered")
	if err := f.bob.Verify(e, Signed, epoch.Add(time.Hour)); !errors.Is(err, pki.ErrBadSignature) {
		t.Errorf("want ErrBadSignature, got %v", err)
	}
}

func TestUnprotectedMessageRejected(t *testing.T) {
	f := newSecFixture(t)
	e := sampleEnvelope()
	if err := f.bob.Verify(e, Signed, epoch.Add(time.Hour)); !errors.Is(err, ErrNotProtected) {
		t.Errorf("want ErrNotProtected, got %v", err)
	}
	// Signed-only where encryption is demanded.
	if err := f.alice.Protect(e, Signed); err != nil {
		t.Fatal(err)
	}
	if err := f.bob.Verify(e, SignedEncrypted, epoch.Add(time.Hour)); !errors.Is(err, ErrNotProtected) {
		t.Errorf("want ErrNotProtected for missing encryption, got %v", err)
	}
}

func TestEncryptedRoundTrip(t *testing.T) {
	f := newSecFixture(t)
	e := sampleEnvelope()
	plain := string(e.Body)
	if err := f.alice.Protect(e, SignedEncrypted); err != nil {
		t.Fatal(err)
	}
	if string(e.Body) == plain {
		t.Fatal("body must be ciphertext after Protect")
	}
	// Round-trip through the wire encoding, as a real exchange would.
	data, err := e.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	received, err := DecodeXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.bob.Verify(received, SignedEncrypted, epoch.Add(time.Hour)); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if string(received.Body) != plain {
		t.Errorf("decrypted body = %q, want %q", received.Body, plain)
	}
}

func TestEncryptedTamperRejected(t *testing.T) {
	f := newSecFixture(t)
	e := sampleEnvelope()
	if err := f.alice.Protect(e, SignedEncrypted); err != nil {
		t.Fatal(err)
	}
	e.Body[0] ^= 0xff
	if err := f.bob.Verify(e, SignedEncrypted, epoch.Add(time.Hour)); !errors.Is(err, ErrDecrypt) {
		t.Errorf("want ErrDecrypt, got %v", err)
	}
}

func TestProtectionSizesIncrease(t *testing.T) {
	f := newSecFixture(t)
	sizes := make(map[Protection]int)
	for _, level := range []Protection{Plain, Signed, SignedEncrypted} {
		e := sampleEnvelope()
		if err := f.alice.Protect(e, level); err != nil {
			t.Fatal(err)
		}
		sizes[level] = e.WireSize()
	}
	if !(sizes[Plain] < sizes[Signed] && sizes[Signed] < sizes[SignedEncrypted]) {
		t.Errorf("sizes = %v, expected strict growth with protection", sizes)
	}
}

func echoNode(context.Context, *Call, *Envelope) (*Envelope, error) {
	return &Envelope{Action: "echo-reply", Timestamp: epoch, Body: []byte("ok")}, nil
}

func TestNetworkSendAccountsLatencyAndBytes(t *testing.T) {
	n := NewNetwork(5*time.Millisecond, 42)
	n.Register("a", echoNode)
	n.Register("b", echoNode)
	n.SetLink("a", "b", LinkProps{Latency: 20 * time.Millisecond})
	n.SetLink("b", "a", LinkProps{Latency: 30 * time.Millisecond})

	call := &Call{}
	env := &Envelope{From: "a", To: "b", Action: "echo", Timestamp: epoch, Body: []byte("hi")}
	reply, err := n.Send(context.Background(), call, env)
	if err != nil {
		t.Fatal(err)
	}
	if reply == nil || string(reply.Body) != "ok" {
		t.Fatalf("reply = %+v", reply)
	}
	if call.Elapsed != 50*time.Millisecond {
		t.Errorf("Elapsed = %v, want 50ms (20 out + 30 back)", call.Elapsed)
	}
	if call.Messages != 2 || call.Bytes <= 0 {
		t.Errorf("call accounting = %+v", call)
	}
	st := n.Stats()
	if st.Messages != 2 || st.Bytes != int64(call.Bytes) {
		t.Errorf("network stats = %+v", st)
	}
}

func TestNetworkNestedCallsAccumulate(t *testing.T) {
	n := NewNetwork(10*time.Millisecond, 1)
	n.Register("pip", echoNode)
	n.Register("pdp", func(_ context.Context, call *Call, env *Envelope) (*Envelope, error) {
		// The PDP consults the PIP before answering.
		_, err := n.Send(context.Background(), call, &Envelope{From: "pdp", To: "pip", Action: "pip:fetch", Timestamp: epoch})
		if err != nil {
			return nil, err
		}
		return &Envelope{Action: "decision", Timestamp: epoch, Body: []byte("Permit")}, nil
	})
	n.Register("pep", echoNode)

	call := &Call{}
	if _, err := n.Send(context.Background(), call, &Envelope{From: "pep", To: "pdp", Action: "pdp:decide", Timestamp: epoch}); err != nil {
		t.Fatal(err)
	}
	// Four hops of 10ms: pep->pdp, pdp->pip, pip->pdp, pdp->pep.
	if call.Elapsed != 40*time.Millisecond {
		t.Errorf("Elapsed = %v, want 40ms", call.Elapsed)
	}
	if call.Messages != 4 {
		t.Errorf("Messages = %d, want 4", call.Messages)
	}
}

func TestNetworkFailures(t *testing.T) {
	n := NewNetwork(time.Millisecond, 7)
	n.Register("a", echoNode)
	n.Register("b", echoNode)

	call := &Call{}
	if _, err := n.Send(context.Background(), call, &Envelope{From: "a", To: "ghost", Timestamp: epoch}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node: %v", err)
	}
	n.SetNodeDown("b", true)
	if _, err := n.Send(context.Background(), call, &Envelope{From: "a", To: "b", Timestamp: epoch}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("downed node: %v", err)
	}
	if !n.NodeDown("b") {
		t.Error("NodeDown bookkeeping")
	}
	n.SetNodeDown("b", false)
	n.SetLink("a", "b", LinkProps{Latency: time.Millisecond, Down: true})
	if _, err := n.Send(context.Background(), call, &Envelope{From: "a", To: "b", Timestamp: epoch}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("partitioned link: %v", err)
	}
}

func TestNetworkLoss(t *testing.T) {
	n := NewNetwork(time.Millisecond, 99)
	n.Register("a", echoNode)
	n.Register("b", echoNode)
	n.SetLink("a", "b", LinkProps{Latency: time.Millisecond, Loss: 1.0}) // always lose

	call := &Call{}
	if _, err := n.Send(context.Background(), call, &Envelope{From: "a", To: "b", Timestamp: epoch}); !errors.Is(err, ErrLost) {
		t.Fatalf("want ErrLost, got %v", err)
	}
	if n.Stats().Lost == 0 {
		t.Error("loss must be counted")
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		n := NewNetwork(time.Millisecond, 1234)
		n.Register("a", echoNode)
		n.Register("b", echoNode)
		n.SetLink("a", "b", LinkProps{Latency: time.Millisecond, Loss: 0.3})
		for i := 0; i < 100; i++ {
			_, _ = n.Send(context.Background(), &Call{}, &Envelope{From: "a", To: "b", Timestamp: epoch})
		}
		st := n.Stats()
		return st.Messages, st.Lost
	}
	m1, l1 := run()
	m2, l2 := run()
	if m1 != m2 || l1 != l2 {
		t.Errorf("runs diverge: (%d,%d) vs (%d,%d)", m1, l1, m2, l2)
	}
}

func TestHTTPBinding(t *testing.T) {
	handler := HTTPHandler(func(_ context.Context, _ *Call, env *Envelope) (*Envelope, error) {
		return &Envelope{Action: env.Action + "-reply", Timestamp: epoch, Body: append([]byte("seen:"), env.Body...)}, nil
	})
	srv := httptest.NewServer(handler)
	defer srv.Close()

	client := &HTTPClient{Endpoint: srv.URL}
	reply, err := client.Send(context.Background(), sampleEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if reply.Action != "pdp:decide-reply" || string(reply.Body) != "seen:<Request>...</Request>" {
		t.Errorf("reply = %+v", reply)
	}
	if reply.From != "pdp.hospital-a" || reply.To != "pep.hospital-a" {
		t.Errorf("reply routing = %s -> %s", reply.From, reply.To)
	}
}

func TestSharedKeySymmetric(t *testing.T) {
	f := newSecFixture(t)
	a := f.alice.sharedKeys["pdp.hospital-a"]
	b := f.bob.sharedKeys["pep.hospital-a"]
	if len(a) != 32 || string(a) != string(b) {
		t.Error("both parties must derive the same pairwise key")
	}
	if err := f.alice.EstablishSharedKey("stranger"); err == nil {
		t.Error("unknown peer must be rejected")
	}
}
