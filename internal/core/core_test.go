package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/delegation"
	"repro/internal/ha"
	"repro/internal/pip"
	"repro/internal/policy"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(Config{Name: "test-vo", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func doctorsReadPolicy(id string) *policy.Policy {
	return policy.NewPolicy(id).
		Combining(policy.FirstApplicable).
		When(policy.MatchResource(policy.AttrResourceType, policy.String("patient-record"))).
		Rule(policy.Permit("doctors-read").
			When(policy.MatchRole("doctor"), policy.MatchActionID("read")).
			Build()).
		Rule(policy.Deny("default").Build()).
		Build()
}

func TestSystemEndToEnd(t *testing.T) {
	s := newSystem(t)
	a, err := s.AddDomain("hospital-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddDomain("hospital-b"); err != nil {
		t.Fatal(err)
	}
	a.Directory.AddSubject(pip.Subject{ID: "alice", Domain: "hospital-a", Roles: []string{"doctor"}})
	if err := s.AdmitPolicy(a, doctorsReadPolicy("records"), s.At(0)); err != nil {
		t.Fatal(err)
	}
	req := policy.NewAccessRequest("alice", "rec-1", "read").
		Add(policy.CategorySubject, policy.AttrSubjectDomain, policy.String("hospital-a")).
		Add(policy.CategoryResource, policy.AttrResourceDomain, policy.String("hospital-a")).
		Add(policy.CategoryResource, policy.AttrResourceType, policy.String("patient-record"))
	out := s.VO.Request(context.Background(), "hospital-a", req, s.At(time.Hour))
	if !out.Allowed {
		t.Fatalf("end-to-end request refused: %v", out.Err)
	}
}

func TestSystemDeterministicFromSeed(t *testing.T) {
	build := func() string {
		s, err := NewSystem(Config{Name: "vo", Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.AddDomain("dom")
		if err != nil {
			t.Fatal(err)
		}
		return string(d.CA.Certificate().PublicKey)
	}
	if build() != build() {
		t.Error("systems built from one seed must have identical keys")
	}
}

func TestAdmitPolicyRejectsInvalid(t *testing.T) {
	s := newSystem(t)
	d, err := s.AddDomain("dom")
	if err != nil {
		t.Fatal(err)
	}
	bad := &policy.Policy{ID: "", Combining: policy.DenyOverrides}
	if err := s.AdmitPolicy(d, bad, s.At(0)); err == nil {
		t.Error("invalid policy must be refused")
	}
}

func TestAdmitPolicyRejectsActualConflict(t *testing.T) {
	s := newSystem(t)
	d, err := s.AddDomain("dom")
	if err != nil {
		t.Fatal(err)
	}
	permit := policy.NewPolicy("allow-read").
		Combining(policy.FirstApplicable).
		Rule(policy.Permit("p").
			When(policy.MatchResourceID("db"), policy.MatchActionID("read")).
			Build()).
		Build()
	if err := s.AdmitPolicy(d, permit, s.At(0)); err != nil {
		t.Fatal(err)
	}
	deny := policy.NewPolicy("deny-read").
		Combining(policy.FirstApplicable).
		Rule(policy.Deny("d").
			When(policy.MatchResourceID("db"), policy.MatchActionID("read")).
			Build()).
		Build()
	if err := s.AdmitPolicy(d, deny, s.At(0)); !errors.Is(err, ErrConflict) {
		t.Errorf("want ErrConflict, got %v", err)
	}
	// A conditional clash is only potential: admitted.
	conditional := policy.NewPolicy("deny-read-night").
		Combining(policy.FirstApplicable).
		Rule(policy.Deny("d").
			When(policy.MatchResourceID("db"), policy.MatchActionID("read")).
			If(policy.Lit(policy.Boolean(true))).
			Build()).
		Build()
	if err := s.AdmitPolicy(d, conditional, s.At(0)); err != nil {
		t.Errorf("potential conflict must be admitted: %v", err)
	}
	// Replacing an existing policy does not conflict with its old self.
	if err := s.AdmitPolicy(d, permit, s.At(0)); err != nil {
		t.Errorf("replacement: %v", err)
	}
}

func TestAdmitPolicyDelegationGate(t *testing.T) {
	s := newSystem(t)
	d, err := s.AddDomain("dom")
	if err != nil {
		t.Fatal(err)
	}
	foreign := doctorsReadPolicy("foreign-policy")
	foreign.Issuer = "authority.partner"
	// No grant: refused.
	if err := s.AdmitPolicy(d, foreign, s.At(0)); err == nil {
		t.Fatal("undelegated foreign issuer must be refused")
	}
	// Grant the partner authority over everything; then admitted.
	s.VO.Delegation.AddRoot("authority.partner")
	if err := s.AdmitPolicy(d, foreign, s.At(0)); err != nil {
		t.Errorf("after delegation: %v", err)
	}
	// Locally issued policies need no grant. Target a disjoint resource
	// type so the new policy cannot clash with the admitted one.
	local := policy.NewPolicy("local-policy").
		IssuedBy("authority.dom").
		Combining(policy.FirstApplicable).
		When(policy.MatchResource(policy.AttrResourceType, policy.String("lab-result"))).
		Rule(policy.Permit("labs-read").
			When(policy.MatchRole("doctor"), policy.MatchActionID("read")).
			Build()).
		Build()
	if err := s.AdmitPolicy(d, local, s.At(0)); err != nil {
		t.Errorf("local issuer: %v", err)
	}
}

func TestDelegateThroughSystem(t *testing.T) {
	s := newSystem(t)
	if _, err := s.AddDomain("dom"); err != nil {
		t.Fatal(err)
	}
	g, err := s.Delegate("authority.dom", "authority.team", delegation.UnrestrictedScope(), 0, time.Time{}, s.At(0))
	if err != nil {
		t.Fatal(err)
	}
	if g.Delegate != "authority.team" {
		t.Errorf("grant = %+v", g)
	}
	if _, err := s.VO.Delegation.ValidateIssuer("authority.team", "r", "a", s.At(time.Hour)); err != nil {
		t.Errorf("delegated issuer: %v", err)
	}
}

func TestReplicatePDP(t *testing.T) {
	s := newSystem(t)
	d, err := s.AddDomain("dom")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdmitPolicy(d, doctorsReadPolicy("records"), s.At(0)); err != nil {
		t.Fatal(err)
	}
	ensemble, replicas, err := s.ReplicatePDP(d, 3, ha.Failover)
	if err != nil {
		t.Fatal(err)
	}
	if len(replicas) != 3 {
		t.Fatalf("replicas = %d", len(replicas))
	}
	req := policy.NewAccessRequest("u", "rec", "read").
		Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String("doctor")).
		Add(policy.CategoryResource, policy.AttrResourceType, policy.String("patient-record"))
	if res := policy.Decide(context.Background(), ensemble, req, s.At(0)); res.Decision != policy.DecisionPermit {
		t.Fatalf("ensemble decision = %v", res.Decision)
	}
	// Survives two crashes under failover.
	replicas[0].SetDown(true)
	replicas[1].SetDown(true)
	if res := policy.Decide(context.Background(), ensemble, req, s.At(0)); res.Decision != policy.DecisionPermit {
		t.Errorf("2-crash decision = %v (%v)", res.Decision, res.Err)
	}
	if _, _, err := s.ReplicatePDP(d, 0, ha.Failover); err == nil {
		t.Error("zero replicas must be rejected")
	}
}
