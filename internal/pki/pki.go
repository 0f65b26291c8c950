// Package pki provides the public-key infrastructure substrate the paper's
// trust model rests on (Section 3.1): certificates binding names to keys,
// certificate authorities, chain verification and revocation lists.
//
// Certificates are Ed25519-signed and structurally equivalent to the X.509
// subset the paper's systems (CAS, VOMS, mutual PEP/PDP authentication)
// rely on: subject, issuer, validity window, CA flag, serial and signature.
// The encoding is a deterministic field concatenation rather than ASN.1;
// the trust semantics — who vouches for which key, for how long, and how
// trust is revoked — are preserved.
package pki

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Verification errors, matched with errors.Is.
var (
	// ErrBadSignature reports a signature that does not verify.
	ErrBadSignature = errors.New("pki: bad signature")
	// ErrExpired reports a certificate used outside its validity window.
	ErrExpired = errors.New("pki: certificate expired or not yet valid")
	// ErrRevoked reports a certificate present on a revocation list.
	ErrRevoked = errors.New("pki: certificate revoked")
	// ErrUntrusted reports a chain that does not terminate at a trusted
	// root.
	ErrUntrusted = errors.New("pki: issuer not trusted")
	// ErrNotCA reports a non-CA certificate used to sign another
	// certificate.
	ErrNotCA = errors.New("pki: issuer certificate is not a CA")
)

// KeyPair holds an Ed25519 key pair.
type KeyPair struct {
	// Public is the verification key.
	Public ed25519.PublicKey
	// Private is the signing key.
	Private ed25519.PrivateKey
}

// GenerateKeyPair creates a key pair from the given entropy source; a nil
// source uses crypto/rand. Deterministic sources make tests and experiments
// reproducible.
func GenerateKeyPair(entropy io.Reader) (KeyPair, error) {
	if entropy == nil {
		entropy = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(entropy)
	if err != nil {
		return KeyPair{}, fmt.Errorf("pki: generate key: %w", err)
	}
	return KeyPair{Public: pub, Private: priv}, nil
}

// Sign signs the message with the pair's private key.
func (k KeyPair) Sign(message []byte) []byte {
	return ed25519.Sign(k.Private, message)
}

// Certificate binds a subject name to a public key under an issuer's
// signature.
type Certificate struct {
	// Serial uniquely identifies the certificate within its issuer.
	Serial uint64
	// Subject names the key holder.
	Subject string
	// Issuer names the signing authority.
	Issuer string
	// PublicKey is the certified key.
	PublicKey ed25519.PublicKey
	// NotBefore and NotAfter bound the validity window.
	NotBefore time.Time
	NotAfter  time.Time
	// IsCA marks certificates allowed to sign other certificates.
	IsCA bool
	// Signature is the issuer's signature over TBS().
	Signature []byte
}

// TBS returns the deterministic to-be-signed byte encoding of the
// certificate's content.
func (c *Certificate) TBS() []byte {
	var buf bytes.Buffer
	var serial [8]byte
	binary.BigEndian.PutUint64(serial[:], c.Serial)
	buf.Write(serial[:])
	writeLenPrefixed(&buf, []byte(c.Subject))
	writeLenPrefixed(&buf, []byte(c.Issuer))
	writeLenPrefixed(&buf, c.PublicKey)
	var nb, na [8]byte
	binary.BigEndian.PutUint64(nb[:], uint64(c.NotBefore.UnixNano()))
	binary.BigEndian.PutUint64(na[:], uint64(c.NotAfter.UnixNano()))
	buf.Write(nb[:])
	buf.Write(na[:])
	if c.IsCA {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	return buf.Bytes()
}

func writeLenPrefixed(buf *bytes.Buffer, b []byte) {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(b)))
	buf.Write(l[:])
	buf.Write(b)
}

// ValidAt reports whether the clock falls inside the validity window.
func (c *Certificate) ValidAt(at time.Time) bool {
	return !at.Before(c.NotBefore) && !at.After(c.NotAfter)
}

// VerifySignatureBy checks the certificate's signature against the issuer's
// public key.
func (c *Certificate) VerifySignatureBy(issuerKey ed25519.PublicKey) error {
	if !ed25519.Verify(issuerKey, c.TBS(), c.Signature) {
		return fmt.Errorf("pki: certificate %s/%d: %w", c.Subject, c.Serial, ErrBadSignature)
	}
	return nil
}

// Authority is a certificate authority: it holds a CA key pair and
// certificate, issues subject certificates, and maintains a revocation
// list.
type Authority struct {
	name string
	key  KeyPair
	cert *Certificate

	mu      sync.Mutex
	serial  uint64
	revoked map[uint64]time.Time
}

// NewRootAuthority creates a self-signed root CA valid for the given
// window. A nil entropy source uses crypto/rand.
func NewRootAuthority(name string, entropy io.Reader, notBefore, notAfter time.Time) (*Authority, error) {
	key, err := GenerateKeyPair(entropy)
	if err != nil {
		return nil, err
	}
	a := &Authority{
		name:    name,
		key:     key,
		revoked: make(map[uint64]time.Time),
	}
	cert := &Certificate{
		Serial:    0,
		Subject:   name,
		Issuer:    name,
		PublicKey: key.Public,
		NotBefore: notBefore,
		NotAfter:  notAfter,
		IsCA:      true,
	}
	cert.Signature = key.Sign(cert.TBS())
	a.cert = cert
	return a, nil
}

// Name returns the authority's distinguished name.
func (a *Authority) Name() string { return a.name }

// Certificate returns the authority's own (self- or cross-signed) CA
// certificate.
func (a *Authority) Certificate() *Certificate { return a.cert }

// PublicKey returns the authority's verification key.
func (a *Authority) PublicKey() ed25519.PublicKey { return a.key.Public }

// Issue signs a certificate for the subject's public key.
func (a *Authority) Issue(subject string, pub ed25519.PublicKey, notBefore, notAfter time.Time, isCA bool) *Certificate {
	a.mu.Lock()
	a.serial++
	serial := a.serial
	a.mu.Unlock()
	cert := &Certificate{
		Serial:    serial,
		Subject:   subject,
		Issuer:    a.name,
		PublicKey: pub,
		NotBefore: notBefore,
		NotAfter:  notAfter,
		IsCA:      isCA,
	}
	cert.Signature = a.key.Sign(cert.TBS())
	return cert
}

// IssueSubordinate creates a child authority whose CA certificate is signed
// by this authority, forming a chain.
func (a *Authority) IssueSubordinate(name string, entropy io.Reader, notBefore, notAfter time.Time) (*Authority, error) {
	key, err := GenerateKeyPair(entropy)
	if err != nil {
		return nil, err
	}
	sub := &Authority{
		name:    name,
		key:     key,
		revoked: make(map[uint64]time.Time),
	}
	sub.cert = a.Issue(name, key.Public, notBefore, notAfter, true)
	return sub, nil
}

// Revoke places a serial on the authority's revocation list.
func (a *Authority) Revoke(serial uint64, at time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.revoked[serial] = at
}

// IsRevoked reports whether the serial is revoked.
func (a *Authority) IsRevoked(serial uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.revoked[serial]
	return ok
}

// CRL returns the revoked serials, sorted, modelling a published
// certificate revocation list.
func (a *Authority) CRL() []uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]uint64, 0, len(a.revoked))
	for s := range a.revoked {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TrustStore is the verifier-side state: trusted root certificates and
// known revocation lists, keyed by issuer name.
type TrustStore struct {
	mu    sync.RWMutex
	roots map[string]*Certificate
	crls  map[string]map[uint64]struct{}
}

// NewTrustStore builds an empty trust store.
func NewTrustStore() *TrustStore {
	return &TrustStore{
		roots: make(map[string]*Certificate),
		crls:  make(map[string]map[uint64]struct{}),
	}
}

// AddRoot trusts a root certificate.
func (t *TrustStore) AddRoot(cert *Certificate) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roots[cert.Subject] = cert
}

// SetCRL installs the revocation list published by an issuer.
func (t *TrustStore) SetCRL(issuer string, serials []uint64) {
	set := make(map[uint64]struct{}, len(serials))
	for _, s := range serials {
		set[s] = struct{}{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.crls[issuer] = set
}

// Root returns the trusted root for the given name, if any.
func (t *TrustStore) Root(name string) (*Certificate, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, ok := t.roots[name]
	return c, ok
}

func (t *TrustStore) revoked(issuer string, serial uint64) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.crls[issuer][serial]
	return ok
}

// VerifyChain verifies leaf against the trust store at the given time. The
// intermediates slice supplies any CA certificates between the leaf and a
// trusted root, in any order. Verification checks signatures, validity
// windows, CA flags and revocation at every link.
func (t *TrustStore) VerifyChain(leaf *Certificate, intermediates []*Certificate, at time.Time) error {
	byName := make(map[string]*Certificate, len(intermediates))
	for _, c := range intermediates {
		byName[c.Subject] = c
	}
	cur := leaf
	const maxDepth = 16
	for depth := 0; depth < maxDepth; depth++ {
		if !cur.ValidAt(at) {
			return fmt.Errorf("pki: %s/%d not valid at %v: %w", cur.Subject, cur.Serial, at, ErrExpired)
		}
		if t.revoked(cur.Issuer, cur.Serial) {
			return fmt.Errorf("pki: %s/%d: %w", cur.Subject, cur.Serial, ErrRevoked)
		}
		if root, ok := t.Root(cur.Issuer); ok {
			if !root.IsCA {
				return fmt.Errorf("pki: root %s: %w", root.Subject, ErrNotCA)
			}
			if !root.ValidAt(at) {
				return fmt.Errorf("pki: root %s: %w", root.Subject, ErrExpired)
			}
			if err := cur.VerifySignatureBy(root.PublicKey); err != nil {
				return err
			}
			return nil
		}
		issuer, ok := byName[cur.Issuer]
		if !ok {
			return fmt.Errorf("pki: no path from %s to a trusted root: %w", leaf.Subject, ErrUntrusted)
		}
		if !issuer.IsCA {
			return fmt.Errorf("pki: intermediate %s: %w", issuer.Subject, ErrNotCA)
		}
		if err := cur.VerifySignatureBy(issuer.PublicKey); err != nil {
			return err
		}
		cur = issuer
	}
	return fmt.Errorf("pki: chain exceeds depth %d: %w", maxDepth, ErrUntrusted)
}

// VerifySignature checks a detached message signature against a certificate
// issued directly by one of the trust store's roots.
func (t *TrustStore) VerifySignature(cert *Certificate, at time.Time, message, sig []byte) error {
	if err := t.VerifyChain(cert, nil, at); err != nil {
		return err
	}
	if !ed25519.Verify(cert.PublicKey, message, sig) {
		return fmt.Errorf("pki: message signature by %s: %w", cert.Subject, ErrBadSignature)
	}
	return nil
}
