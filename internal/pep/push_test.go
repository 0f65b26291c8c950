package pep

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/assertion"
	"repro/internal/capability"
	"repro/internal/pdp"
	"repro/internal/pip"
	"repro/internal/pki"
	"repro/internal/policy"
)

// The push-model enforcement point of Fig. 2: a capability service issues a
// signed capability once; the PEP validates it locally with no PDP
// round-trip.

type detRand struct{ r *rand.Rand }

func newDetRand(seed int64) *detRand { return &detRand{r: rand.New(rand.NewSource(seed))} }

func (d *detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

var (
	pushEpoch = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	pushNow   = pushEpoch.Add(time.Hour)
)

type pushFixture struct {
	svc *capability.Service
	enf *PushEnforcer
}

func newPushFixture(t *testing.T) *pushFixture {
	t.Helper()
	notAfter := pushEpoch.AddDate(1, 0, 0)
	root, err := pki.NewRootAuthority("vo-ca", newDetRand(1), pushEpoch, notAfter)
	if err != nil {
		t.Fatal(err)
	}
	key, err := pki.GenerateKeyPair(newDetRand(2))
	if err != nil {
		t.Fatal(err)
	}
	cert := root.Issue("cas.vo", key.Public, pushEpoch, notAfter, false)

	dir := pip.NewDirectory("idp")
	dir.AddSubject(pip.Subject{ID: "alice", Roles: []string{"doctor"}})

	engine := pdp.New("cas-pdp", pdp.WithResolver(dir))
	rootPolicy := policy.NewPolicySet("vo").Combining(policy.DenyUnlessPermit).
		Add(policy.NewPolicy("doctors").
			Combining(policy.DenyUnlessPermit).
			Rule(policy.Permit("doctors-read").
				When(policy.MatchRole("doctor"), policy.MatchActionID("read")).
				Build()).
			Build()).
		Build()
	if err := engine.SetRoot(rootPolicy); err != nil {
		t.Fatal(err)
	}

	svc := capability.NewService("cas.vo", key, engine, dir, 15*time.Minute).
		WithClock(func() time.Time { return pushNow })
	trust := pki.NewTrustStore()
	trust.AddRoot(root.Certificate())
	enf := NewPushEnforcer("pep.hospital-b", capability.NewValidator(trust, "pep.hospital-b", cert)).
		WithClock(func() time.Time { return pushNow.Add(time.Minute) })
	return &pushFixture{svc: svc, enf: enf}
}

func (f *pushFixture) issue(t *testing.T, subject, resource, action string) *assertion.Assertion {
	t.Helper()
	cap, err := f.svc.IssueCapability(context.Background(), policy.NewAccessRequest(subject, resource, action), "pep.hospital-b")
	if err != nil {
		t.Fatalf("IssueCapability: %v", err)
	}
	return cap
}

func TestPushEnforcerPermitsValidCapability(t *testing.T) {
	f := newPushFixture(t)
	cap := f.issue(t, "alice", "rec-7", "read")
	out := f.enf.EnforceCapability(context.Background(), policy.NewAccessRequest("alice", "rec-7", "read"), cap)
	if !out.Allowed {
		t.Fatalf("valid capability denied: %v", out.Err)
	}
	if out.Decision != policy.DecisionPermit || out.By != "cas.vo" {
		t.Errorf("outcome = %+v, want permit by cas.vo", out)
	}
	st := f.enf.Stats()
	if st.Requests != 1 || st.Permitted != 1 || st.Denied != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPushEnforcerDeniesMissingCapability(t *testing.T) {
	f := newPushFixture(t)
	out := f.enf.EnforceCapability(context.Background(), policy.NewAccessRequest("alice", "rec-7", "read"), nil)
	if out.Allowed {
		t.Fatal("nil capability must deny")
	}
	if !errors.Is(out.Err, ErrNotPermitted) {
		t.Errorf("want ErrNotPermitted, got %v", out.Err)
	}
}

func TestPushEnforcerDeniesWrongResourceOrAction(t *testing.T) {
	f := newPushFixture(t)
	cap := f.issue(t, "alice", "rec-7", "read")
	for _, req := range []*policy.Request{
		policy.NewAccessRequest("alice", "rec-8", "read"),
		policy.NewAccessRequest("alice", "rec-7", "write"),
	} {
		out := f.enf.EnforceCapability(context.Background(), req, cap)
		if out.Allowed {
			t.Errorf("capability for rec-7/read accepted for %s/%s", req.ResourceID(), req.ActionID())
		}
		if !errors.Is(out.Err, ErrDenied) {
			t.Errorf("want ErrDenied, got %v", out.Err)
		}
	}
	st := f.enf.Stats()
	if st.Denied != 2 {
		t.Errorf("denied = %d, want 2", st.Denied)
	}
}

func TestPushEnforcerDeniesStolenCapability(t *testing.T) {
	// A capability names its subject; presenting someone else's capability
	// must fail even though the token itself verifies.
	f := newPushFixture(t)
	cap := f.issue(t, "alice", "rec-7", "read")
	out := f.enf.EnforceCapability(context.Background(), policy.NewAccessRequest("mallory", "rec-7", "read"), cap)
	if out.Allowed {
		t.Fatal("stolen capability accepted")
	}
	if !errors.Is(out.Err, ErrDenied) {
		t.Errorf("want ErrDenied, got %v", out.Err)
	}
}

func TestPushEnforcerDeniesExpiredCapability(t *testing.T) {
	f := newPushFixture(t)
	cap := f.issue(t, "alice", "rec-7", "read")
	out := f.enf.EnforceCapabilityAt(context.Background(), policy.NewAccessRequest("alice", "rec-7", "read"),
		cap, pushNow.Add(time.Hour)) // TTL is 15 minutes
	if out.Allowed {
		t.Fatal("expired capability accepted")
	}
}

func TestPushEnforcerDeniesTamperedCapability(t *testing.T) {
	f := newPushFixture(t)
	cap := f.issue(t, "alice", "rec-7", "read")
	forged := *cap
	forged.Subject = "mallory" // breaks the signature
	out := f.enf.EnforceCapability(context.Background(), policy.NewAccessRequest("mallory", "rec-7", "read"), &forged)
	if out.Allowed {
		t.Fatal("tampered capability accepted")
	}
	if !errors.Is(out.Err, ErrDenied) {
		t.Errorf("want ErrDenied, got %v", out.Err)
	}
}
