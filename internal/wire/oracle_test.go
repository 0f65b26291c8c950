package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"strings"
	"testing"
	"time"
)

// The reflective encoding/xml envelope codec and the encoding/json batch
// framing this package used before internal/xmlscan, kept as the
// differential oracle: the production decoders must accept nothing these
// reject, and agree with them on every value.

type xmlSecurity struct {
	Signer    string `xml:"Signer,omitempty"`
	Signature string `xml:"Signature,omitempty"`
	Encrypted bool   `xml:"Encrypted,attr,omitempty"`
	Nonce     string `xml:"Nonce,omitempty"`
}

type xmlEnvelope struct {
	XMLName     xml.Name     `xml:"Envelope"`
	MessageID   string       `xml:"Header>MessageID"`
	From        string       `xml:"Header>From"`
	To          string       `xml:"Header>To"`
	Action      string       `xml:"Header>Action"`
	Timestamp   string       `xml:"Header>Timestamp"`
	DeadlineNs  int64        `xml:"Header>Deadline,omitempty"`
	TraceID     string       `xml:"Header>TraceID,omitempty"`
	TraceParent string       `xml:"Header>TraceParent,omitempty"`
	TraceSpans  string       `xml:"Header>TraceSpans,omitempty"`
	Security    *xmlSecurity `xml:"Header>Security,omitempty"`
	Body        string       `xml:"Body"`
}

func oracleEncodeXML(e *Envelope) []byte {
	out := xmlEnvelope{
		MessageID:   e.MessageID,
		From:        e.From,
		To:          e.To,
		Action:      e.Action,
		Timestamp:   e.Timestamp.Format(time.RFC3339Nano),
		DeadlineNs:  int64(e.Deadline),
		TraceID:     e.TraceID,
		TraceParent: e.TraceParent,
		Body:        base64.StdEncoding.EncodeToString(e.Body),
	}
	if len(e.TraceSpans) > 0 {
		out.TraceSpans = base64.StdEncoding.EncodeToString(e.TraceSpans)
	}
	if e.Security != nil {
		out.Security = &xmlSecurity{
			Signer:    e.Security.Signer,
			Signature: base64.StdEncoding.EncodeToString(e.Security.Signature),
			Encrypted: e.Security.Encrypted,
			Nonce:     base64.StdEncoding.EncodeToString(e.Security.Nonce),
		}
	}
	data, err := xml.Marshal(&out)
	if err != nil {
		panic(err)
	}
	return data
}

func oracleDecodeXML(data []byte) (*Envelope, error) {
	var in xmlEnvelope
	if err := xml.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	ts, err := time.Parse(time.RFC3339Nano, in.Timestamp)
	if err != nil {
		return nil, err
	}
	body, err := base64.StdEncoding.DecodeString(in.Body)
	if err != nil {
		return nil, err
	}
	e := &Envelope{
		MessageID: in.MessageID, From: in.From, To: in.To, Action: in.Action,
		Timestamp: ts, Deadline: time.Duration(in.DeadlineNs),
		TraceID: in.TraceID, TraceParent: in.TraceParent, Body: body,
	}
	if in.TraceSpans != "" {
		if e.TraceSpans, err = base64.StdEncoding.DecodeString(in.TraceSpans); err != nil {
			return nil, err
		}
	}
	if in.Security != nil {
		sig, err := base64.StdEncoding.DecodeString(in.Security.Signature)
		if err != nil {
			return nil, err
		}
		nonce, err := base64.StdEncoding.DecodeString(in.Security.Nonce)
		if err != nil {
			return nil, err
		}
		e.Security = &SecurityHeader{Signer: in.Security.Signer, Signature: sig, Encrypted: in.Security.Encrypted, Nonce: nonce}
	}
	return e, nil
}

// renderEnvelope is an envelope's whole content; empty and nil byte
// fields render alike, as they are alike on the wire.
func renderEnvelope(e *Envelope) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "id=%q from=%q to=%q action=%q at=%s deadline=%d trace=%q/%q spans=%x body=%x",
		e.MessageID, e.From, e.To, e.Action, e.Timestamp.Format(time.RFC3339Nano), e.Deadline,
		e.TraceID, e.TraceParent, e.TraceSpans, e.Body)
	if s := e.Security; s != nil {
		fmt.Fprintf(&sb, " security{signer=%q sig=%x enc=%v nonce=%x}", s.Signer, s.Signature, s.Encrypted, s.Nonce)
	}
	return sb.String()
}

func envelopeSamples() []*Envelope {
	at := time.Date(2026, 6, 12, 9, 30, 0, 123456789, time.UTC)
	frame, _ := EncodeBodies([][]byte{[]byte("<Request/>"), nil, {}, bytes.Repeat([]byte("x"), 1000)})
	return []*Envelope{
		sampleEnvelope(),
		{Timestamp: at},
		{MessageID: "m<3>", From: "a&b", To: "c\"d'", Action: "pdp:decision\t\n", Timestamp: at.In(time.FixedZone("", -5*3600)),
			Deadline: 250 * time.Millisecond, TraceID: "0123456789abcdef0123456789abcdef", TraceParent: "0123456789abcdef",
			TraceSpans: []byte(`[{"name":"serve"}]`), Body: []byte{0, 1, 2, 254, 255},
			Security: &SecurityHeader{Signer: "pdp.hospital-a", Signature: []byte{1, 2, 3, 255}, Encrypted: true, Nonce: []byte{9, 8, 7}}},
		{MessageID: "m-4", From: "x", To: "y", Action: "noop", Timestamp: at, Deadline: -1, Security: &SecurityHeader{}},
		{MessageID: "batch", From: "bench", To: "pdpd", Action: "pdp:decide-batch", Timestamp: at.Truncate(time.Second), Body: frame},
	}
}

// TestEnvelopeEncoderMatchesOracle: the append encoder writes exactly
// the bytes encoding/xml wrote, and WireSize counts exactly those bytes —
// the E5 and E8 byte tallies are sums of WireSize.
func TestEnvelopeEncoderMatchesOracle(t *testing.T) {
	for _, e := range envelopeSamples() {
		got, err := e.EncodeXML()
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleEncodeXML(e); !bytes.Equal(got, want) {
			t.Errorf("encoding diverges from encoding/xml:\n got %s\nwant %s", got, want)
		}
		if size := e.WireSize(); size != len(got) {
			t.Errorf("WireSize = %d, len(EncodeXML()) = %d", size, len(got))
		}
		checkEnvelopeDocument(t, got)
		back, err := DecodeXML(got)
		if err != nil {
			t.Fatal(err)
		}
		if renderEnvelope(back) != renderEnvelope(e) {
			t.Errorf("envelope does not round-trip:\n got %s\nwant %s", renderEnvelope(back), renderEnvelope(e))
		}
	}
}

// checkEnvelopeDocument is the differential property for one envelope
// document: if DecodeXML accepts it, so does the oracle, with an equal
// envelope, and the envelope re-encodes to a document that decodes equal.
func checkEnvelopeDocument(t *testing.T, data []byte) {
	t.Helper()
	e, err := DecodeXML(data)
	if err != nil {
		return
	}
	want, err := oracleDecodeXML(data)
	if err != nil {
		t.Fatalf("accepted an envelope encoding/xml rejects (%v):\n%q", err, data)
	}
	if got, want := renderEnvelope(e), renderEnvelope(want); got != want {
		t.Fatalf("envelope differs from encoding/xml's:\n got %s\nwant %s\ndoc %q", got, want, data)
	}
	again, err := e.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeXML(again)
	if err != nil {
		t.Fatalf("re-encoded envelope does not decode: %v\n%s", err, again)
	}
	if renderEnvelope(back) != renderEnvelope(e) {
		t.Fatalf("envelope does not survive re-encoding:\n%s\nvs\n%s", renderEnvelope(back), renderEnvelope(e))
	}
}

// envelopeSeeds are hand-written documents for FuzzEnvelopeXML.
var envelopeSeeds = []string{
	// Indented and namespaced, with a declaration, comments, unknown
	// headers and line-wrapped base64.
	"<?xml version=\"1.0\"?>\n<s:Envelope xmlns:s=\"urn:soap\">\n  <s:Header>\n    <MessageID>m-1</MessageID>\n    <From>a</From><To>b</To>\n    <Action>pdp:decide</Action>\n    <!-- when -->\n    <Timestamp>2026-06-01T00:00:00Z</Timestamp>\n    <Deadline> 5000 </Deadline>\n    <ReplyTo><Address>ignored</Address></ReplyTo>\n  </s:Header>\n  <s:Body>\nPFJlcXVl\r\nc3QvPg==\n</s:Body>\n</s:Envelope>\n",
	// CDATA, entities, repeated headers and a repeated security block.
	`<Envelope><Header><MessageID>m&amp;<![CDATA[<1>]]>&#65;</MessageID><MessageID>last</MessageID><Timestamp>2026-06-01T00:00:00.5+02:00</Timestamp><TraceSpans>QQ==</TraceSpans><TraceSpans/><Security Encrypted="1"><Signer>s</Signer><Signature>AQID</Signature></Security><Security Encrypted=""><Nonce>CQgH</Nonce></Security></Header><Header><To>second header</To></Header><Body>QUJD</Body><Body/></Envelope>`,
	`<Envelope><Header><Timestamp>2026-06-01T00:00:00Z</Timestamp><Security/></Header></Envelope>`,
	// Malformed.
	`<Envelope><Header><Timestamp>2026-06-01T00:00:00Z</Timestamp></Header><Body>!!!</Body></Envelope>`,
	`<Envelope><Header><Timestamp>2026-06-01T00:00:00Z</Timestamp><TraceSpans>*</TraceSpans></Header><Body></Body></Envelope>`,
	`<Envelope><Header><Timestamp>2026-06-01T00:00:00Z</Timestamp><Security><Signature>=</Signature></Security></Header></Envelope>`,
	`<Envelope><Header><Timestamp>2026-06-01T00:00:00Z</Timestamp><Security Encrypted="maybe"/></Header></Envelope>`,
	`<Envelope><Header><Timestamp>2026-06-01T00:00:00Z</Timestamp><Deadline>soon</Deadline></Header></Envelope>`,
	`<Envelope><Header><Timestamp>yesterday</Timestamp></Header><Body></Body></Envelope>`,
	`<Envelope><Header></Header><Body></Body></Envelope>`,
	`<Envelope><Header><Timestamp>2026-06-01T00:00:00Z</Timestamp></Header><Body>QUJD</Envelope>`,
	`<Envelope><Header><Timestamp>2026-06-01T00:00:00Z</Timestamp></Header><Body>QUJD</Body>`,
	`<Envelope><Header><Timestamp>2026-06-01T00:00:00Z</Timestamp></Header>` + strings.Repeat("<a>", 40) + strings.Repeat("</a>", 40) + `</Envelope>`,
	`<Message/>`,
	`not xml`,
	``,
}

// FuzzEnvelopeXML drives DecodeXML with arbitrary bytes: it never panics
// and is never more lenient than, nor disagrees with, encoding/xml.
// testdata/fuzz holds envelopes captured from the encoding/xml encoder.
func FuzzEnvelopeXML(f *testing.F) {
	for _, e := range envelopeSamples() {
		data, _ := e.EncodeXML()
		f.Add(data)
	}
	for _, doc := range envelopeSeeds {
		f.Add([]byte(doc))
	}
	f.Fuzz(checkEnvelopeDocument)
}

func TestEnvelopeSeedsDecideAsDocumented(t *testing.T) {
	for i, doc := range envelopeSeeds {
		_, err := DecodeXML([]byte(doc))
		if want := i < 3; (err == nil) != want {
			t.Errorf("seed %d accepted = %v, want %v (%v)\n%s", i, err == nil, want, err, doc)
		}
		checkEnvelopeDocument(t, []byte(doc))
	}
	e, err := DecodeXML([]byte(envelopeSeeds[0]))
	if err != nil {
		t.Fatal(err)
	}
	if e.MessageID != "m-1" || string(e.Body) != "<Request/>" || e.Deadline != 5000 {
		t.Errorf("indented namespaced envelope decoded to %s", renderEnvelope(e))
	}
}

// checkFrame is the differential property for one batch frame.
func checkFrame(t *testing.T, data []byte) {
	t.Helper()
	bodies, err := DecodeBodies(data)
	if err != nil {
		return
	}
	var want [][]byte
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("accepted a frame encoding/json rejects (%v):\n%q", err, data)
	}
	if len(bodies) != len(want) || (bodies == nil) != (want == nil) {
		t.Fatalf("%d bodies (nil=%v), encoding/json has %d (nil=%v):\n%q", len(bodies), bodies == nil, len(want), want == nil, data)
	}
	for i := range want {
		if !bytes.Equal(bodies[i], want[i]) || (bodies[i] == nil) != (want[i] == nil) {
			t.Fatalf("body %d = %q, encoding/json has %q", i, bodies[i], want[i])
		}
		// Bodies share one buffer: growing one must not reach the next.
		if cap(bodies[i]) != len(bodies[i]) {
			t.Fatalf("body %d has spare capacity %d", i, cap(bodies[i])-len(bodies[i]))
		}
	}
	// Decoding into a reused buffer that still holds other bytes, roomy
	// or too small, gives the same bodies.
	for _, dirty := range [][]byte{bytes.Repeat([]byte{0xa5}, len(data)+8), {0xa5}} {
		reused, err := DecodeBodiesInto(&dirty, data)
		if err != nil {
			t.Fatalf("dirty buffer: %v", err)
		}
		if len(reused) != len(bodies) || (reused == nil) != (bodies == nil) {
			t.Fatalf("dirty buffer: %d bodies (nil=%v), want %d (nil=%v)", len(reused), reused == nil, len(bodies), bodies == nil)
		}
		for i := range bodies {
			if !bytes.Equal(reused[i], bodies[i]) || (reused[i] == nil) != (bodies[i] == nil) || cap(reused[i]) != len(reused[i]) {
				t.Fatalf("dirty buffer: body %d = %q (cap %d), want %q", i, reused[i], cap(reused[i]), bodies[i])
			}
		}
	}
	again, err := EncodeBodies(bodies)
	if err != nil {
		t.Fatal(err)
	}
	if oracle, _ := json.Marshal(bodies); !bytes.Equal(again, oracle) {
		t.Fatalf("EncodeBodies = %s, encoding/json writes %s", again, oracle)
	}
}

var frameSeeds = []string{
	`["QQ==","","QUJD"]`, ` [ "QQ==" , null ] ` + "\n", `[]`, `null`, `[null]`,
	// Malformed, or JSON this reader deliberately does not take.
	`["QQ=="`, `["QQ==",]`, `[,"QQ=="]`, `["QQ==" "QQ=="]`, `["Q"]`, `["QQ"]`, `["QQ==\n"]`, "[\"QQ\n==\"]",
	`["\u0051Q=="]`, `["QQ=="]]`, `[["QQ=="]]`, `{"a":"QQ=="}`, `"QQ=="`, `[1]`, `[nul]`, `nullx`, `[null x]`, ``,
}

// FuzzDecodeBodies drives DecodeBodies with arbitrary bytes: it never
// panics and is never more lenient than, nor disagrees with,
// encoding/json. testdata/fuzz holds frames the encoding/json encoder
// wrote.
func FuzzDecodeBodies(f *testing.F) {
	for _, doc := range frameSeeds {
		f.Add([]byte(doc))
	}
	f.Fuzz(checkFrame)
}

func TestFrameSeedsDecideAsDocumented(t *testing.T) {
	for i, doc := range frameSeeds {
		_, err := DecodeBodies([]byte(doc))
		if want := i < 5; (err == nil) != want {
			t.Errorf("seed %d %q accepted = %v, want %v (%v)", i, doc, err == nil, want, err)
		}
		checkFrame(t, []byte(doc))
	}
}

func TestBodiesRoundTrip(t *testing.T) {
	for _, bodies := range [][][]byte{nil, {}, {nil}, {{}}, {[]byte("a"), []byte("<Request>…</Request>"), nil, {}, bytes.Repeat([]byte{0xff}, 4096)}} {
		frame, err := EncodeBodies(bodies)
		if err != nil {
			t.Fatal(err)
		}
		checkFrame(t, frame)
		got, err := DecodeBodies(frame)
		if err != nil {
			t.Fatalf("%v\n%s", err, frame)
		}
		if len(got) != len(bodies) {
			t.Fatalf("%d bodies, want %d", len(got), len(bodies))
		}
		for i := range bodies {
			if !bytes.Equal(got[i], bodies[i]) {
				t.Errorf("body %d = %q, want %q", i, got[i], bodies[i])
			}
		}
	}
}
