// Package wire is the messaging substrate standing in for the paper's
// SOAP/WS-Security Web Services stack: envelopes with routing headers, a
// message-security layer (detached signatures and authenticated
// encryption, the XML-DSig / XML-Enc roles), a deterministic simulated
// network with per-link latency, loss, partitions and byte accounting, and
// a real net/http binding for standalone deployment.
//
// The simulated network carries a virtual clock per call: latency is
// accounted, not slept, so large multi-domain experiments are fast and
// exactly reproducible.
//
// Exchanges are deadline-aware: an envelope's Deadline header carries the
// sender's remaining budget inside the signed header block, the simulated
// network enforces it against the call's virtual clock across every hop
// (ErrDeadline), and the HTTP binding arms a real context.Context from it
// on the serving side — so a caller's deadline bounds the work done on
// its behalf anywhere in the system.
package wire

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/pki"
	"repro/internal/xmlscan"
)

// Security and transport errors, matched with errors.Is.
var (
	// ErrBadEnvelope reports a malformed envelope.
	ErrBadEnvelope = errors.New("wire: malformed envelope")
	// ErrNotProtected reports a message below the required protection
	// level.
	ErrNotProtected = errors.New("wire: message not protected")
	// ErrDecrypt reports an encrypted body that failed authentication.
	ErrDecrypt = errors.New("wire: decryption failed")
)

// Protection is the message-security level, the subject of experiment E8.
type Protection int

// Protection levels.
const (
	// Plain sends the body as-is.
	Plain Protection = iota + 1
	// Signed adds a detached Ed25519 signature over the headers and
	// body (the XML-DSig role).
	Signed
	// SignedEncrypted signs and then encrypts the body with AES-GCM
	// under a pairwise shared key (the XML-Enc role).
	SignedEncrypted
)

// String names the protection level.
func (p Protection) String() string {
	switch p {
	case Plain:
		return "plain"
	case Signed:
		return "signed"
	case SignedEncrypted:
		return "signed+encrypted"
	default:
		return fmt.Sprintf("protection(%d)", int(p))
	}
}

// SecurityHeader carries the WS-Security-style material of an envelope.
type SecurityHeader struct {
	// Signer names the certificate subject that signed the message.
	Signer string
	// Signature is the detached signature over Canonical().
	Signature []byte
	// Encrypted marks an AES-GCM protected body.
	Encrypted bool
	// Nonce is the GCM nonce for encrypted bodies.
	Nonce []byte
}

// Envelope is a SOAP-style message: routing headers, optional security
// header, and an opaque body (an XACML context, an assertion, a policy...).
type Envelope struct {
	// MessageID uniquely identifies the message.
	MessageID string
	// From and To are node names on the network.
	From string
	To   string
	// Action names the operation, e.g. "pdp:decide".
	Action string
	// Timestamp is the sender's clock, covered by the signature to
	// bound replay.
	Timestamp time.Time
	// Deadline is the remaining deadline budget the sender grants this
	// exchange: how long, measured from the moment the message is sent,
	// the receiver may spend before the answer is worthless. Zero means
	// unbounded. The budget propagates the caller's deadline across
	// process boundaries — a downstream PDP arms the same deadline
	// instead of working past it (the HTTP binding arms a context from
	// it; the simulated network bounds the call's virtual clock with it).
	// It travels in the signed header block, so a relay cannot stretch a
	// deadline the sender signed.
	Deadline time.Duration
	// TraceID and TraceParent carry the caller's decision trace across
	// the hop (internal/trace wire form): the receiver joins the trace and
	// parents its spans on TraceParent, so a federated decision yields one
	// stitched trace. Both travel in the signed header block — a relay
	// cannot re-home a signed request onto another trace. Empty means the
	// caller is not tracing.
	TraceID     string
	TraceParent string
	// TraceSpans is the serving hop's exported span set (trace.Export),
	// present on replies when the request carried a TraceID. It is
	// deliberately OUTSIDE the signature: the serving layer appends it
	// after the reply body may already have been signed, and it is pure
	// observability — a tampered span set can mislead a trace view but
	// never an authorization decision.
	TraceSpans []byte
	// Security is present on protected messages.
	Security *SecurityHeader
	// Body is the payload.
	Body []byte
}

// Canonical returns the byte string covered by signatures: every routing
// header (the deadline budget included) plus the body.
func (e *Envelope) Canonical() []byte {
	var buf bytes.Buffer
	for _, s := range []string{e.MessageID, e.From, e.To, e.Action, e.TraceID, e.TraceParent} {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(s)))
		buf.Write(l[:])
		buf.WriteString(s)
	}
	var ts [8]byte
	binary.BigEndian.PutUint64(ts[:], uint64(e.Timestamp.UnixNano()))
	buf.Write(ts[:])
	var dl [8]byte
	binary.BigEndian.PutUint64(dl[:], uint64(e.Deadline))
	buf.Write(dl[:])
	buf.Write(e.Body)
	return buf.Bytes()
}

// EncodeXML renders the envelope in its SOAP-style XML form. The body and
// binary security material are base64-encoded.
func (e *Envelope) EncodeXML() ([]byte, error) {
	// Room for every tag plus the values, exact unless a header needs
	// escaping.
	n := 320 + len(e.MessageID) + len(e.From) + len(e.To) + len(e.Action) + len(e.TraceID) + len(e.TraceParent) +
		base64.StdEncoding.EncodedLen(len(e.Body)) + base64.StdEncoding.EncodedLen(len(e.TraceSpans))
	if sec := e.Security; sec != nil {
		n += 96 + len(sec.Signer) + base64.StdEncoding.EncodedLen(len(sec.Signature)+len(sec.Nonce)+2)
	}
	return e.appendXML(make([]byte, 0, n)), nil
}

// appendXML appends the XML form. Empty optional headers are left out;
// Deadline is the remaining budget in nanoseconds.
func (e *Envelope) appendXML(dst []byte) []byte {
	dst = append(dst, "<Envelope><Header>"...)
	dst = appendElement(dst, "MessageID", e.MessageID)
	dst = appendElement(dst, "From", e.From)
	dst = appendElement(dst, "To", e.To)
	dst = appendElement(dst, "Action", e.Action)
	dst = append(e.Timestamp.AppendFormat(append(dst, "<Timestamp>"...), time.RFC3339Nano), "</Timestamp>"...)
	if e.Deadline != 0 {
		dst = append(strconv.AppendInt(append(dst, "<Deadline>"...), int64(e.Deadline), 10), "</Deadline>"...)
	}
	if e.TraceID != "" {
		dst = appendElement(dst, "TraceID", e.TraceID)
	}
	if e.TraceParent != "" {
		dst = appendElement(dst, "TraceParent", e.TraceParent)
	}
	if len(e.TraceSpans) > 0 {
		dst = appendBase64Element(dst, "TraceSpans", e.TraceSpans)
	}
	if sec := e.Security; sec != nil {
		dst = append(dst, "<Security"...)
		if sec.Encrypted {
			dst = append(dst, ` Encrypted="true"`...)
		}
		dst = append(dst, '>')
		if sec.Signer != "" {
			dst = appendElement(dst, "Signer", sec.Signer)
		}
		if len(sec.Signature) > 0 {
			dst = appendBase64Element(dst, "Signature", sec.Signature)
		}
		if len(sec.Nonce) > 0 {
			dst = appendBase64Element(dst, "Nonce", sec.Nonce)
		}
		dst = append(dst, "</Security>"...)
	}
	dst = append(dst, "</Header>"...)
	dst = appendBase64Element(dst, "Body", e.Body)
	return append(dst, "</Envelope>"...)
}

func appendElement(dst []byte, name, text string) []byte {
	dst = append(append(append(dst, '<'), name...), '>')
	dst = xmlscan.AppendEscaped(dst, text)
	return append(append(append(dst, "</"...), name...), '>')
}

func appendBase64Element(dst []byte, name string, data []byte) []byte {
	dst = appendBase64(append(append(append(dst, '<'), name...), '>'), data)
	return append(append(append(dst, "</"...), name...), '>')
}

// appendBase64 appends the standard base64 encoding of data.
func appendBase64(dst, data []byte) []byte {
	start, n := len(dst), base64.StdEncoding.EncodedLen(len(data))
	dst = slices.Grow(dst, n)[:start+n]
	base64.StdEncoding.Encode(dst[start:], data)
	return dst
}

// decodeBase64 decodes the standard base64 text of an element into dst's
// storage, grown as needed. The result is never nil.
func decodeBase64(dst, text []byte) ([]byte, error) {
	n := base64.StdEncoding.DecodedLen(len(text))
	out := slices.Grow(dst[:0], n)[:n]
	n, err := base64.StdEncoding.Decode(out, text)
	if out == nil {
		out = []byte{}
	}
	return out[:n], err
}

// DecodeXML parses an envelope from its XML form. Elements may come in
// any layout and with namespace prefixes; unknown ones are skipped, and
// of a repeated header the last wins.
func DecodeXML(data []byte) (*Envelope, error) { return decodeXML(data, nil) }

// decodeXML is DecodeXML with the Body decoded into body's storage.
func decodeXML(data, body []byte) (*Envelope, error) {
	e, err := decodeEnvelope(data, body)
	if err != nil {
		return nil, fmt.Errorf("wire: decode: %v: %w", err, ErrBadEnvelope)
	}
	return e, nil
}

func decodeEnvelope(data, body []byte) (*Envelope, error) {
	s := xmlscan.New(data)
	if err := s.Root("Envelope"); err != nil {
		return nil, err
	}
	e := &Envelope{Body: []byte{}}
	var timestamp []byte
	text := func(dst *string) error {
		b, err := s.Text()
		*dst = string(b)
		return err
	}
	binary := func(dst *[]byte) error {
		b, err := s.Text()
		if err == nil {
			*dst, err = decodeBase64(nil, b)
		}
		return err
	}
	security := func(name []byte) error {
		switch string(name) {
		case "Signer":
			return text(&e.Security.Signer)
		case "Signature":
			return binary(&e.Security.Signature)
		case "Nonce":
			return binary(&e.Security.Nonce)
		}
		return s.Skip()
	}
	header := func(name []byte) (err error) {
		switch string(name) {
		case "MessageID":
			return text(&e.MessageID)
		case "From":
			return text(&e.From)
		case "To":
			return text(&e.To)
		case "Action":
			return text(&e.Action)
		case "Timestamp":
			timestamp, err = s.Text()
			return err
		case "Deadline":
			b, err := s.Text()
			if err != nil {
				return err
			}
			ns, err := xmlscan.ParseInt(b)
			e.Deadline = time.Duration(ns)
			return err
		case "TraceID":
			return text(&e.TraceID)
		case "TraceParent":
			return text(&e.TraceParent)
		case "TraceSpans":
			b, err := s.Text()
			if e.TraceSpans = nil; err == nil && len(b) > 0 {
				e.TraceSpans, err = decodeBase64(nil, b)
			}
			return err
		case "Security":
			if e.Security == nil {
				e.Security = &SecurityHeader{}
			}
			if v, ok := s.Attr("Encrypted"); ok {
				if e.Security.Encrypted, err = xmlscan.ParseBool(v); err != nil {
					return err
				}
			}
			return s.Children(security)
		}
		return s.Skip()
	}
	err := s.Children(func(name []byte) (err error) {
		switch string(name) {
		case "Header":
			err = s.Children(header)
		case "Body":
			var b []byte
			if b, err = s.Text(); err == nil {
				e.Body, err = decodeBase64(body, b)
			}
		default:
			err = s.Skip()
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if e.Timestamp, err = time.Parse(time.RFC3339Nano, string(timestamp)); err != nil {
		return nil, fmt.Errorf("timestamp: %w", err)
	}
	return e, nil
}

// WireSize reports the encoded size in bytes, the unit of experiment E8:
// exactly len(EncodeXML()), without keeping the encoding.
func (e *Envelope) WireSize() int {
	buf := encodings.get()
	*buf = e.appendXML(*buf)
	n := len(*buf)
	encodings.put(buf)
	return n
}

// Security provides message-level protection for one node: its signing
// identity plus the peer material needed for verification and encryption.
type Security struct {
	key   pki.KeyPair
	cert  *pki.Certificate
	trust *pki.TrustStore
	// peerCerts maps signer names to their certificates.
	peerCerts map[string]*pki.Certificate
	// sharedKeys holds pairwise 32-byte AES keys per peer, standing in
	// for keys established by a TLS-style handshake.
	sharedKeys map[string][]byte
}

// NewSecurity builds the security context for a node.
func NewSecurity(key pki.KeyPair, cert *pki.Certificate, trust *pki.TrustStore) *Security {
	return &Security{
		key:        key,
		cert:       cert,
		trust:      trust,
		peerCerts:  make(map[string]*pki.Certificate),
		sharedKeys: make(map[string][]byte),
	}
}

// AddPeer registers a peer's certificate for verification.
func (s *Security) AddPeer(cert *pki.Certificate) {
	s.peerCerts[cert.Subject] = cert
}

// EstablishSharedKey derives a deterministic pairwise key from both
// parties' public keys, modelling an out-of-band or TLS-style exchange.
// Both sides derive the same key independently.
func (s *Security) EstablishSharedKey(peer string) error {
	peerCert, ok := s.peerCerts[peer]
	if !ok {
		return fmt.Errorf("wire: no certificate for peer %s: %w", peer, pki.ErrUntrusted)
	}
	a, b := []byte(s.cert.PublicKey), []byte(peerCert.PublicKey)
	if bytes.Compare(a, b) > 0 {
		a, b = b, a
	}
	sum := sha256.Sum256(append(append([]byte("wire-shared-key:"), a...), b...))
	s.sharedKeys[peer] = sum[:]
	return nil
}

// Protect applies the protection level to the envelope in place.
func (s *Security) Protect(e *Envelope, level Protection) error {
	switch level {
	case Plain:
		return nil
	case Signed:
		e.Security = &SecurityHeader{Signer: s.cert.Subject}
		e.Security.Signature = ed25519.Sign(s.key.Private, e.Canonical())
		return nil
	case SignedEncrypted:
		e.Security = &SecurityHeader{Signer: s.cert.Subject}
		e.Security.Signature = ed25519.Sign(s.key.Private, e.Canonical())
		key, ok := s.sharedKeys[e.To]
		if !ok {
			return fmt.Errorf("wire: no shared key with %s: %w", e.To, pki.ErrUntrusted)
		}
		block, err := aes.NewCipher(key)
		if err != nil {
			return fmt.Errorf("wire: cipher: %w", err)
		}
		gcm, err := cipher.NewGCM(block)
		if err != nil {
			return fmt.Errorf("wire: gcm: %w", err)
		}
		// A deterministic per-message nonce derived from the message
		// identity; message IDs are unique per sender.
		sum := sha256.Sum256([]byte(e.From + "|" + e.MessageID))
		nonce := sum[:gcm.NonceSize()]
		e.Body = gcm.Seal(nil, nonce, e.Body, []byte(e.MessageID))
		e.Security.Encrypted = true
		e.Security.Nonce = nonce
		return nil
	default:
		return fmt.Errorf("wire: unknown protection level %v", level)
	}
}

// Verify checks (and for encrypted bodies, decrypts) a received envelope
// in place, enforcing the minimum protection level.
func (s *Security) Verify(e *Envelope, minimum Protection, at time.Time) error {
	if minimum == Plain {
		return nil
	}
	if e.Security == nil || len(e.Security.Signature) == 0 {
		return fmt.Errorf("wire: message %s from %s: %w", e.MessageID, e.From, ErrNotProtected)
	}
	if minimum == SignedEncrypted && !e.Security.Encrypted {
		return fmt.Errorf("wire: message %s from %s is not encrypted: %w", e.MessageID, e.From, ErrNotProtected)
	}
	if e.Security.Encrypted {
		key, ok := s.sharedKeys[e.From]
		if !ok {
			return fmt.Errorf("wire: no shared key with %s: %w", e.From, pki.ErrUntrusted)
		}
		block, err := aes.NewCipher(key)
		if err != nil {
			return fmt.Errorf("wire: cipher: %w", err)
		}
		gcm, err := cipher.NewGCM(block)
		if err != nil {
			return fmt.Errorf("wire: gcm: %w", err)
		}
		plain, err := gcm.Open(nil, e.Security.Nonce, e.Body, []byte(e.MessageID))
		if err != nil {
			return fmt.Errorf("wire: message %s: %w", e.MessageID, ErrDecrypt)
		}
		e.Body = plain
	}
	cert, ok := s.peerCerts[e.Security.Signer]
	if !ok {
		return fmt.Errorf("wire: unknown signer %s: %w", e.Security.Signer, pki.ErrUntrusted)
	}
	if err := s.trust.VerifySignature(cert, at, e.Canonical(), e.Security.Signature); err != nil {
		return fmt.Errorf("wire: message %s: %w", e.MessageID, err)
	}
	return nil
}
