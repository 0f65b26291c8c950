// Package assertion implements SAML-style signed security assertions: the
// portable statements of identity attributes and authorisation decisions
// that the paper's capability-issuing architecture transports between
// domains (Sections 2.2 and 2.3).
//
// Two statement types are supported, mirroring the SAML statements the
// paper relies on:
//
//   - attribute statements, asserting subject attributes (the VOMS-style
//     attribute-certificate role), and
//   - authorisation decision statements, asserting that a subject may
//     perform an action on a resource (the CAS-style capability role).
//
// Assertions carry validity windows and audience restrictions, and are
// signed with the issuer's pki key. Verification checks the signature
// against a certificate chained to a trust store, the validity window, and
// the audience.
package assertion

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/xml"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/pki"
	"repro/internal/policy"
)

// Verification errors, matched with errors.Is.
var (
	// ErrExpired reports an assertion used outside its validity window.
	ErrExpired = errors.New("assertion: outside validity window")
	// ErrAudience reports an assertion presented to the wrong audience.
	ErrAudience = errors.New("assertion: audience mismatch")
	// ErrUnsigned reports a missing signature.
	ErrUnsigned = errors.New("assertion: not signed")
)

// AuthzDecision asserts the issuer's decision that Subject may perform
// Action on Resource — the paper's capability payload.
type AuthzDecision struct {
	// Resource identifies the target of the decision.
	Resource string
	// Action identifies the permitted (or denied) operation.
	Action string
	// Decision is the asserted outcome.
	Decision policy.Decision
}

// Assertion is a signed statement by an issuer about a subject.
type Assertion struct {
	// ID uniquely identifies the assertion.
	ID string
	// Issuer names the asserting party; its certificate must chain to a
	// root the consumer trusts.
	Issuer string
	// Subject names the principal the statements are about.
	Subject string
	// IssuedAt, NotBefore and NotOnOrAfter bound the assertion's life.
	IssuedAt     time.Time
	NotBefore    time.Time
	NotOnOrAfter time.Time
	// Audience optionally restricts the consuming party; empty means any.
	Audience string
	// Attributes holds attribute statements by name.
	Attributes map[string]policy.Bag
	// Decision optionally holds an authorisation decision statement.
	Decision *AuthzDecision
	// Signature is the issuer's Ed25519 signature over Canonical().
	Signature []byte
}

// Canonical returns the deterministic byte encoding covered by the
// signature. Attribute names are sorted so logically equal assertions share
// one canonical form.
func (a *Assertion) Canonical() []byte {
	var buf bytes.Buffer
	for _, s := range []string{a.ID, a.Issuer, a.Subject, a.Audience} {
		writeLenPrefixed(&buf, []byte(s))
	}
	for _, ts := range []time.Time{a.IssuedAt, a.NotBefore, a.NotOnOrAfter} {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(ts.UnixNano()))
		buf.Write(b[:])
	}
	names := make([]string, 0, len(a.Attributes))
	for n := range a.Attributes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		writeLenPrefixed(&buf, []byte(n))
		vals := a.Attributes[n].Strings()
		sort.Strings(vals)
		for _, v := range vals {
			writeLenPrefixed(&buf, []byte(v))
		}
	}
	if a.Decision != nil {
		writeLenPrefixed(&buf, []byte(a.Decision.Resource))
		writeLenPrefixed(&buf, []byte(a.Decision.Action))
		writeLenPrefixed(&buf, []byte(a.Decision.Decision.String()))
	}
	return buf.Bytes()
}

func writeLenPrefixed(buf *bytes.Buffer, b []byte) {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(b)))
	buf.Write(l[:])
	buf.Write(b)
}

// Sign signs the assertion with the issuer's key pair.
func (a *Assertion) Sign(key pki.KeyPair) {
	a.Signature = key.Sign(a.Canonical())
}

// VerifyOptions parameterise assertion verification.
type VerifyOptions struct {
	// Trust is the consumer's trust store; the issuer certificate must
	// chain into it.
	Trust *pki.TrustStore
	// IssuerCert is the certificate presented for the issuer.
	IssuerCert *pki.Certificate
	// At is the verification time.
	At time.Time
	// Audience is the verifying party's identity for audience checks.
	Audience string
}

// Verify checks signature, chain, validity window and audience.
func (a *Assertion) Verify(opts VerifyOptions) error {
	if len(a.Signature) == 0 {
		return fmt.Errorf("assertion %s: %w", a.ID, ErrUnsigned)
	}
	if opts.IssuerCert == nil || opts.IssuerCert.Subject != a.Issuer {
		return fmt.Errorf("assertion %s: issuer certificate missing or mismatched: %w", a.ID, pki.ErrUntrusted)
	}
	if err := opts.Trust.VerifySignature(opts.IssuerCert, opts.At, a.Canonical(), a.Signature); err != nil {
		return fmt.Errorf("assertion %s: %w", a.ID, err)
	}
	if opts.At.Before(a.NotBefore) || !opts.At.Before(a.NotOnOrAfter) {
		return fmt.Errorf("assertion %s valid [%v, %v), checked at %v: %w",
			a.ID, a.NotBefore, a.NotOnOrAfter, opts.At, ErrExpired)
	}
	if a.Audience != "" && a.Audience != opts.Audience {
		return fmt.Errorf("assertion %s for audience %q presented to %q: %w",
			a.ID, a.Audience, opts.Audience, ErrAudience)
	}
	return nil
}

// --- XML encoding (SAML-flavoured) ---

type xmlAttrValue struct {
	DataType string `xml:"DataType,attr"`
	Text     string `xml:",chardata"`
}

type xmlAttr struct {
	Name   string         `xml:"Name,attr"`
	Values []xmlAttrValue `xml:"AttributeValue"`
}

type xmlDecision struct {
	Resource string `xml:"Resource,attr"`
	Action   string `xml:"Action,attr"`
	Decision string `xml:"Decision,attr"`
}

type xmlAssertion struct {
	XMLName      xml.Name     `xml:"Assertion"`
	ID           string       `xml:"ID,attr"`
	Issuer       string       `xml:"Issuer"`
	Subject      string       `xml:"Subject"`
	IssuedAt     string       `xml:"IssueInstant,attr"`
	NotBefore    string       `xml:"Conditions>NotBefore"`
	NotOnOrAfter string       `xml:"Conditions>NotOnOrAfter"`
	Audience     string       `xml:"Conditions>AudienceRestriction>Audience,omitempty"`
	Attributes   []xmlAttr    `xml:"AttributeStatement>Attribute,omitempty"`
	Decision     *xmlDecision `xml:"AuthzDecisionStatement,omitempty"`
	Signature    string       `xml:"Signature"`
}

// MarshalXML encodes the assertion in a SAML-flavoured XML form.
func MarshalXML(a *Assertion) ([]byte, error) {
	out := xmlAssertion{
		ID:           a.ID,
		Issuer:       a.Issuer,
		Subject:      a.Subject,
		IssuedAt:     a.IssuedAt.Format(time.RFC3339Nano),
		NotBefore:    a.NotBefore.Format(time.RFC3339Nano),
		NotOnOrAfter: a.NotOnOrAfter.Format(time.RFC3339Nano),
		Audience:     a.Audience,
		Signature:    base64.StdEncoding.EncodeToString(a.Signature),
	}
	names := make([]string, 0, len(a.Attributes))
	for n := range a.Attributes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		xa := xmlAttr{Name: n}
		for _, v := range a.Attributes[n] {
			xa.Values = append(xa.Values, xmlAttrValue{DataType: v.Kind().String(), Text: v.String()})
		}
		out.Attributes = append(out.Attributes, xa)
	}
	if a.Decision != nil {
		out.Decision = &xmlDecision{
			Resource: a.Decision.Resource,
			Action:   a.Decision.Action,
			Decision: a.Decision.Decision.String(),
		}
	}
	data, err := xml.MarshalIndent(&out, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("assertion: marshal: %w", err)
	}
	return data, nil
}

// UnmarshalXML decodes an assertion from its XML form.
func UnmarshalXML(data []byte) (*Assertion, error) {
	var in xmlAssertion
	if err := xml.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("assertion: unmarshal: %w", err)
	}
	sig, err := base64.StdEncoding.DecodeString(in.Signature)
	if err != nil {
		return nil, fmt.Errorf("assertion: signature: %w", err)
	}
	a := &Assertion{
		ID:        in.ID,
		Issuer:    in.Issuer,
		Subject:   in.Subject,
		Audience:  in.Audience,
		Signature: sig,
	}
	if a.IssuedAt, err = time.Parse(time.RFC3339Nano, in.IssuedAt); err != nil {
		return nil, fmt.Errorf("assertion: issue instant: %w", err)
	}
	if a.NotBefore, err = time.Parse(time.RFC3339Nano, in.NotBefore); err != nil {
		return nil, fmt.Errorf("assertion: not-before: %w", err)
	}
	if a.NotOnOrAfter, err = time.Parse(time.RFC3339Nano, in.NotOnOrAfter); err != nil {
		return nil, fmt.Errorf("assertion: not-on-or-after: %w", err)
	}
	if len(in.Attributes) > 0 {
		a.Attributes = make(map[string]policy.Bag, len(in.Attributes))
		for _, xa := range in.Attributes {
			bag := make(policy.Bag, 0, len(xa.Values))
			for _, xv := range xa.Values {
				kind, err := policy.KindFromString(xv.DataType)
				if err != nil {
					return nil, fmt.Errorf("assertion: attribute %s: %w", xa.Name, err)
				}
				v, err := policy.ParseValue(kind, xv.Text)
				if err != nil {
					return nil, fmt.Errorf("assertion: attribute %s: %w", xa.Name, err)
				}
				bag = append(bag, v)
			}
			a.Attributes[xa.Name] = bag
		}
	}
	if in.Decision != nil {
		dec, err := policy.DecisionFromString(in.Decision.Decision)
		if err != nil {
			return nil, fmt.Errorf("assertion: decision: %w", err)
		}
		a.Decision = &AuthzDecision{
			Resource: in.Decision.Resource,
			Action:   in.Decision.Action,
			Decision: dec,
		}
	}
	return a, nil
}
