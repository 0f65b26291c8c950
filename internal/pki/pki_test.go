package pki

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// detRand is a deterministic entropy source for reproducible tests.
type detRand struct{ r *rand.Rand }

func newDetRand(seed int64) *detRand { return &detRand{r: rand.New(rand.NewSource(seed))} }

func (d *detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

var (
	epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	later = epoch.AddDate(1, 0, 0)
	mid   = epoch.AddDate(0, 6, 0)
)

func newTestRoot(t *testing.T, name string, seed int64) *Authority {
	t.Helper()
	a, err := NewRootAuthority(name, newDetRand(seed), epoch, later)
	if err != nil {
		t.Fatalf("NewRootAuthority: %v", err)
	}
	return a
}

func TestRootSelfSigned(t *testing.T) {
	root := newTestRoot(t, "root-ca", 1)
	cert := root.Certificate()
	if cert.Subject != "root-ca" || cert.Issuer != "root-ca" || !cert.IsCA {
		t.Errorf("root cert malformed: %+v", cert)
	}
	if err := cert.VerifySignatureBy(root.PublicKey()); err != nil {
		t.Errorf("self signature: %v", err)
	}
}

func TestIssueAndVerifyLeaf(t *testing.T) {
	root := newTestRoot(t, "root-ca", 1)
	key, err := GenerateKeyPair(newDetRand(2))
	if err != nil {
		t.Fatal(err)
	}
	leaf := root.Issue("pdp.hospital-a", key.Public, epoch, later, false)

	store := NewTrustStore()
	store.AddRoot(root.Certificate())
	if err := store.VerifyChain(leaf, nil, mid); err != nil {
		t.Errorf("VerifyChain: %v", err)
	}
}

func TestVerifyChainThroughIntermediate(t *testing.T) {
	root := newTestRoot(t, "vo-root", 1)
	sub, err := root.IssueSubordinate("domain-ca", newDetRand(2), epoch, later)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := GenerateKeyPair(newDetRand(3))
	leaf := sub.Issue("pep.domain", key.Public, epoch, later, false)

	store := NewTrustStore()
	store.AddRoot(root.Certificate())

	if err := store.VerifyChain(leaf, []*Certificate{sub.Certificate()}, mid); err != nil {
		t.Errorf("chain with intermediate: %v", err)
	}
	// Without the intermediate the chain is broken.
	if err := store.VerifyChain(leaf, nil, mid); !errors.Is(err, ErrUntrusted) {
		t.Errorf("want ErrUntrusted, got %v", err)
	}
}

func TestVerifyChainRejectsExpired(t *testing.T) {
	root := newTestRoot(t, "root", 1)
	key, _ := GenerateKeyPair(newDetRand(2))
	leaf := root.Issue("svc", key.Public, epoch, epoch.AddDate(0, 1, 0), false)
	store := NewTrustStore()
	store.AddRoot(root.Certificate())

	if err := store.VerifyChain(leaf, nil, epoch.AddDate(0, 2, 0)); !errors.Is(err, ErrExpired) {
		t.Errorf("after expiry: want ErrExpired, got %v", err)
	}
	if err := store.VerifyChain(leaf, nil, epoch.Add(-time.Hour)); !errors.Is(err, ErrExpired) {
		t.Errorf("before validity: want ErrExpired, got %v", err)
	}
}

func TestVerifyChainRejectsRevoked(t *testing.T) {
	root := newTestRoot(t, "root", 1)
	key, _ := GenerateKeyPair(newDetRand(2))
	leaf := root.Issue("svc", key.Public, epoch, later, false)

	store := NewTrustStore()
	store.AddRoot(root.Certificate())
	if err := store.VerifyChain(leaf, nil, mid); err != nil {
		t.Fatalf("pre-revocation: %v", err)
	}

	root.Revoke(leaf.Serial, mid)
	if !root.IsRevoked(leaf.Serial) {
		t.Fatal("authority should report revocation")
	}
	store.SetCRL(root.Name(), root.CRL())
	if err := store.VerifyChain(leaf, nil, mid); !errors.Is(err, ErrRevoked) {
		t.Errorf("post-revocation: want ErrRevoked, got %v", err)
	}
}

func TestVerifyChainRejectsTamperedCert(t *testing.T) {
	root := newTestRoot(t, "root", 1)
	key, _ := GenerateKeyPair(newDetRand(2))
	leaf := root.Issue("svc", key.Public, epoch, later, false)
	leaf.Subject = "svc-impersonator" // tamper after signing

	store := NewTrustStore()
	store.AddRoot(root.Certificate())
	if err := store.VerifyChain(leaf, nil, mid); !errors.Is(err, ErrBadSignature) {
		t.Errorf("want ErrBadSignature, got %v", err)
	}
}

func TestVerifyChainRejectsNonCAIntermediate(t *testing.T) {
	root := newTestRoot(t, "root", 1)
	interKey, _ := GenerateKeyPair(newDetRand(2))
	// A plain (non-CA) certificate tries to act as an issuer.
	fakeCA := root.Issue("not-a-ca", interKey.Public, epoch, later, false)

	leafKey, _ := GenerateKeyPair(newDetRand(3))
	leaf := &Certificate{
		Serial: 99, Subject: "victim", Issuer: "not-a-ca",
		PublicKey: leafKey.Public, NotBefore: epoch, NotAfter: later,
	}
	leaf.Signature = interKey.Sign(leaf.TBS())

	store := NewTrustStore()
	store.AddRoot(root.Certificate())
	if err := store.VerifyChain(leaf, []*Certificate{fakeCA}, mid); !errors.Is(err, ErrNotCA) {
		t.Errorf("want ErrNotCA, got %v", err)
	}
}

func TestVerifySignature(t *testing.T) {
	root := newTestRoot(t, "root", 1)
	key, _ := GenerateKeyPair(newDetRand(2))
	leaf := root.Issue("signer", key.Public, epoch, later, false)
	store := NewTrustStore()
	store.AddRoot(root.Certificate())

	msg := []byte("authorisation decision: Permit")
	sig := key.Sign(msg)
	if err := store.VerifySignature(leaf, mid, msg, sig); err != nil {
		t.Errorf("valid signature rejected: %v", err)
	}
	if err := store.VerifySignature(leaf, mid, []byte("tampered"), sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered message: want ErrBadSignature, got %v", err)
	}
	// A signature by an untrusted key must fail even if the message is intact.
	otherKey, _ := GenerateKeyPair(newDetRand(3))
	if err := store.VerifySignature(leaf, mid, msg, otherKey.Sign(msg)); !errors.Is(err, ErrBadSignature) {
		t.Errorf("wrong key: want ErrBadSignature, got %v", err)
	}
}

func TestCRLSortedAndComplete(t *testing.T) {
	root := newTestRoot(t, "root", 1)
	key, _ := GenerateKeyPair(newDetRand(2))
	var serials []uint64
	for i := 0; i < 5; i++ {
		c := root.Issue("svc", key.Public, epoch, later, false)
		serials = append(serials, c.Serial)
	}
	root.Revoke(serials[3], mid)
	root.Revoke(serials[1], mid)
	crl := root.CRL()
	if len(crl) != 2 || crl[0] != serials[1] || crl[1] != serials[3] {
		t.Errorf("CRL = %v, want sorted [%d %d]", crl, serials[1], serials[3])
	}
}

func TestSerialsUnique(t *testing.T) {
	root := newTestRoot(t, "root", 1)
	key, _ := GenerateKeyPair(newDetRand(2))
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		c := root.Issue("svc", key.Public, epoch, later, false)
		if seen[c.Serial] {
			t.Fatalf("duplicate serial %d", c.Serial)
		}
		seen[c.Serial] = true
	}
}

func TestTBSDeterministic(t *testing.T) {
	root := newTestRoot(t, "root", 1)
	key, _ := GenerateKeyPair(newDetRand(2))
	c := root.Issue("svc", key.Public, epoch, later, false)
	a, b := c.TBS(), c.TBS()
	if string(a) != string(b) {
		t.Error("TBS must be deterministic")
	}
	c2 := *c
	c2.IsCA = true
	if string(c.TBS()) == string(c2.TBS()) {
		t.Error("TBS must cover the CA flag")
	}
}
