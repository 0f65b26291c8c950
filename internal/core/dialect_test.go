package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/pip"
	"repro/internal/policy"
)

// A domain joins the VO with policies written in its own local dialect;
// admission must translate them and the federation flows must serve them
// like native policies (Section 3.1, Policy Heterogeneity Management).
func TestAdmitDialectSourceServesFederatedTraffic(t *testing.T) {
	s := newSystem(t)
	b, err := s.AddDomain("hospital-b")
	if err != nil {
		t.Fatal(err)
	}
	b.Directory.AddSubject(pip.Subject{ID: "bob", Domain: "hospital-b", Roles: []string{"doctor"}})
	b.Directory.AddSubject(pip.Subject{ID: "mallory", Domain: "hospital-b", Roles: []string{"visitor"}})

	src := `
policy records first-applicable {
  target resource.resource-type == "patient-record"
  permit doctors-read when subject.role has "doctor" and action.action-id == "read"
  deny default
}`
	if err := s.AdmitDialectSource(b, src, s.At(0)); err != nil {
		t.Fatal(err)
	}

	req := func(subject string) *policy.Request {
		return policy.NewAccessRequest(subject, "rec-9", "read").
			Add(policy.CategorySubject, policy.AttrSubjectDomain, policy.String("hospital-b")).
			Add(policy.CategoryResource, policy.AttrResourceDomain, policy.String("hospital-b")).
			Add(policy.CategoryResource, policy.AttrResourceType, policy.String("patient-record"))
	}
	if out := s.VO.Request(context.Background(), "hospital-b", req("bob"), s.At(time.Hour)); !out.Allowed {
		t.Fatalf("dialect-admitted policy refused bob: %v", out.Err)
	}
	if out := s.VO.Request(context.Background(), "hospital-b", req("mallory"), s.At(time.Hour)); out.Allowed {
		t.Fatal("dialect-admitted policy permitted mallory")
	}
}

func TestAdmitDialectSourceRefusesConflicts(t *testing.T) {
	// A dialect policy that contradicts an installed one must be refused
	// by the same static conflict analysis native admissions face.
	s := newSystem(t)
	d, err := s.AddDomain("lab")
	if err != nil {
		t.Fatal(err)
	}
	installed := policy.NewPolicy("allow-reads").
		Combining(policy.FirstApplicable).
		Rule(policy.Permit("ok").
			When(policy.MatchRole("analyst"), policy.MatchActionID("read"), policy.MatchResourceID("dataset")).
			Build()).
		Build()
	if err := s.AdmitPolicy(d, installed, s.At(0)); err != nil {
		t.Fatal(err)
	}
	// A 'when'-guarded deny compiles to a conditional rule: only a
	// potential conflict, which admission leaves to the runtime combining
	// algorithms.
	src := `
policy block-reads first-applicable {
  deny no-reads when true
}`
	if err := s.AdmitDialectSource(d, src, s.At(0)); err != nil {
		t.Fatalf("conditional overlap must be admitted (runtime algorithms arbitrate): %v", err)
	}
	// A target-scoped unconditional deny on the same tuple is an actual
	// modality conflict and must be refused.
	src = `
policy block-reads-hard first-applicable {
  target subject.role == "analyst" and action.action-id == "read" and resource.resource-id == "dataset"
  deny no-reads
}`
	err = s.AdmitDialectSource(d, src, s.At(0))
	if !errors.Is(err, analysis.ErrRejected) {
		t.Fatalf("actual conflict admitted: %v", err)
	}
}

func TestAdmitDialectSourceSyntaxErrorsCarryPosition(t *testing.T) {
	s := newSystem(t)
	d, err := s.AddDomain("lab")
	if err != nil {
		t.Fatal(err)
	}
	err = s.AdmitDialectSource(d, "policy p nope { permit r }", s.At(0))
	if err == nil || !strings.Contains(err.Error(), "unknown combining algorithm") {
		t.Errorf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "1:10") {
		t.Errorf("error lacks source position: %v", err)
	}
}
