package policy

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// clinicPolicy is the running example: doctors may read and write patient
// records, nurses may read during day shift, everything else is denied.
func clinicPolicy() *Policy {
	dayShift := Call(FnTimeInRange,
		Call(FnOneAndOnly, EnvAttr(AttrCurrentTime)),
		Lit(Time(time.Date(2026, 6, 12, 8, 0, 0, 0, time.UTC))),
		Lit(Time(time.Date(2026, 6, 12, 18, 0, 0, 0, time.UTC))),
	)
	return NewPolicy("clinic").
		Describe("access to patient records").
		Combining(FirstApplicable).
		When(MatchResource(AttrResourceType, String("patient-record"))).
		Rule(Permit("doctor-full").When(MatchRole("doctor")).Build()).
		Rule(Permit("nurse-day-read").
			When(MatchRole("nurse"), MatchActionID("read")).
			If(dayShift).
			Build()).
		Rule(Deny("default").Build()).
		Build()
}

func recordRequest(subject, role, action string) *Request {
	return NewAccessRequest(subject, "rec-1", action).
		Add(CategorySubject, AttrSubjectRole, String(role)).
		Add(CategoryResource, AttrResourceType, String("patient-record"))
}

func TestClinicPolicyDecisions(t *testing.T) {
	p := clinicPolicy()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	day := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	night := time.Date(2026, 6, 12, 23, 0, 0, 0, time.UTC)

	tests := []struct {
		name string
		req  *Request
		at   time.Time
		want Decision
	}{
		{"doctor-read", recordRequest("alice", "doctor", "read"), day, DecisionPermit},
		{"doctor-write-night", recordRequest("alice", "doctor", "write"), night, DecisionPermit},
		{"nurse-read-day", recordRequest("bob", "nurse", "read"), day, DecisionPermit},
		{"nurse-read-night", recordRequest("bob", "nurse", "read"), night, DecisionDeny},
		{"nurse-write-day", recordRequest("bob", "nurse", "write"), day, DecisionDeny},
		{"visitor-read", recordRequest("eve", "visitor", "read"), day, DecisionDeny},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := p.Evaluate(NewContextAt(tt.req, tt.at))
			if res.Decision != tt.want {
				t.Errorf("got %v (by %s), want %v", res.Decision, res.By, tt.want)
			}
		})
	}
}

func TestPolicyTargetGates(t *testing.T) {
	p := clinicPolicy()
	// A non-patient-record resource never reaches the rules.
	req := NewAccessRequest("alice", "printer-1", "read").
		Add(CategorySubject, AttrSubjectRole, String("doctor")).
		Add(CategoryResource, AttrResourceType, String("device"))
	res := p.Evaluate(NewContext(req))
	if res.Decision != DecisionNotApplicable {
		t.Errorf("got %v, want NotApplicable", res.Decision)
	}
}

func TestObligationsFlowToResult(t *testing.T) {
	p := NewPolicy("audited").
		Combining(DenyOverrides).
		Rule(Permit("allow").
			Obligation(Obligation{
				ID:        "log-access",
				FulfillOn: EffectPermit,
				Assignments: []Assignment{
					{Name: "subject", Expr: Call(FnOneAndOnly, SubjectAttr(AttrSubjectID))},
					{Name: "level", Expr: Lit(String("info"))},
				},
			}).
			Build()).
		Obligation(RequireObligation("encrypt-response", EffectPermit, map[string]string{"algorithm": "aes-gcm"})).
		Obligation(RequireObligation("alert-admin", EffectDeny, nil)).
		Build()

	res := p.Evaluate(NewContext(NewAccessRequest("alice", "r", "read")))
	if res.Decision != DecisionPermit {
		t.Fatalf("got %v, want Permit", res.Decision)
	}
	if len(res.Obligations) != 2 {
		t.Fatalf("got %d obligations, want 2 (rule + policy level)", len(res.Obligations))
	}
	byID := make(map[string]FulfilledObligation, len(res.Obligations))
	for _, ob := range res.Obligations {
		byID[ob.ID] = ob
	}
	logOb, ok := byID["log-access"]
	if !ok {
		t.Fatal("log-access obligation missing")
	}
	if got := logOb.Attributes["subject"]; !got.Equal(String("alice")) {
		t.Errorf("obligation subject = %v, want alice", got)
	}
	if _, ok := byID["encrypt-response"]; !ok {
		t.Error("policy-level permit obligation missing")
	}
	if _, ok := byID["alert-admin"]; ok {
		t.Error("deny obligation must not accompany a Permit")
	}
}

func TestObligationEvaluationFailureIndeterminate(t *testing.T) {
	p := NewPolicy("p").
		Rule(Permit("allow").
			Obligation(Obligation{
				ID:          "bad",
				FulfillOn:   EffectPermit,
				Assignments: []Assignment{{Name: "x", Expr: Call(FnOneAndOnly, SubjectAttr("absent"))}},
			}).
			Build()).
		Build()
	res := p.Evaluate(NewContext(NewRequest()))
	if res.Decision != DecisionIndeterminate {
		t.Errorf("got %v, want Indeterminate when obligation cannot be fulfilled", res.Decision)
	}
}

func TestPolicySetNesting(t *testing.T) {
	inner := NewPolicySet("dept").
		Combining(PermitOverrides).
		Add(clinicPolicy()).
		Build()
	root := NewPolicySet("org").
		Combining(DenyOverrides).
		Add(inner,
			NewPolicy("org-lockdown").
				Combining(FirstApplicable).
				When(MatchResource(AttrClassification, String("restricted"))).
				Rule(Deny("lockdown").Build()).
				Build()).
		Build()
	if err := root.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	day := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)

	res := root.Evaluate(NewContextAt(recordRequest("alice", "doctor", "read"), day))
	if res.Decision != DecisionPermit {
		t.Errorf("doctor via nested sets: got %v, want Permit", res.Decision)
	}
	// The org lockdown denies restricted resources even for doctors.
	restricted := recordRequest("alice", "doctor", "read").
		Add(CategoryResource, AttrClassification, String("restricted"))
	res = root.Evaluate(NewContextAt(restricted, day))
	if res.Decision != DecisionDeny {
		t.Errorf("restricted: got %v, want Deny (deny-overrides)", res.Decision)
	}
	if !strings.HasPrefix(res.By, "org/") {
		t.Errorf("By = %q, want org/ prefix", res.By)
	}
}

func TestValidateCatchesStructuralErrors(t *testing.T) {
	tests := []struct {
		name string
		e    Evaluable
	}{
		{"empty-policy-id", &Policy{Combining: DenyOverrides}},
		{"bad-combining", &Policy{ID: "p", Combining: Algorithm(42)}},
		{"only-one-applicable-on-rules", &Policy{ID: "p", Combining: OnlyOneApplicable}},
		{"nil-rule", &Policy{ID: "p", Combining: DenyOverrides, Rules: []*Rule{nil}}},
		{"empty-rule-id", &Policy{ID: "p", Combining: DenyOverrides, Rules: []*Rule{{Effect: EffectDeny}}}},
		{"dup-rule-id", &Policy{ID: "p", Combining: DenyOverrides,
			Rules: []*Rule{{ID: "r", Effect: EffectDeny}, {ID: "r", Effect: EffectPermit}}}},
		{"bad-effect", &Policy{ID: "p", Combining: DenyOverrides, Rules: []*Rule{{ID: "r"}}}},
		{"empty-set-id", &PolicySet{Combining: DenyOverrides}},
		{"nil-child", &PolicySet{ID: "s", Combining: DenyOverrides, Children: []Evaluable{nil}}},
		{"dup-child", &PolicySet{ID: "s", Combining: DenyOverrides, Children: []Evaluable{
			NewPolicy("p").Build(), NewPolicy("p").Build()}}},
		{"invalid-descendant", &PolicySet{ID: "s", Combining: DenyOverrides, Children: []Evaluable{
			&Policy{Combining: DenyOverrides}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.e.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestWalkAndCollect(t *testing.T) {
	p1, p2 := NewPolicy("p1").Build(), NewPolicy("p2").Build()
	root := NewPolicySet("root").Add(
		NewPolicySet("mid").Add(p1).Build(),
		p2,
	).Build()
	var visited []string
	Walk(root, func(e Evaluable) bool {
		visited = append(visited, e.EntityID())
		return true
	})
	want := []string{"root", "mid", "p1", "p2"}
	if strings.Join(visited, ",") != strings.Join(want, ",") {
		t.Errorf("Walk order = %v, want %v", visited, want)
	}
	// Early termination.
	count := 0
	Walk(root, func(Evaluable) bool { count++; return false })
	if count != 1 {
		t.Errorf("Walk with false should stop immediately, visited %d", count)
	}
}

func TestContextMemoisesResolver(t *testing.T) {
	calls := 0
	c := NewContext(NewAccessRequest("u", "r", "read")).WithResolver(
		ResolverFunc(func(_ context.Context, _ *Request, cat Category, name string) (Bag, error) {
			calls++
			return Singleton(String("resolved")), nil
		}))
	for i := 0; i < 3; i++ {
		bag, err := c.Attribute(CategorySubject, "department")
		if err != nil || bag.Size() != 1 {
			t.Fatalf("Attribute: %v, %v", bag, err)
		}
	}
	if calls != 1 {
		t.Errorf("resolver called %d times, want 1 (memoised)", calls)
	}
	if c.ResolverCalls != 1 {
		t.Errorf("ResolverCalls = %d, want 1", c.ResolverCalls)
	}
}

func TestContextRequestShadowsResolver(t *testing.T) {
	c := NewContext(NewAccessRequest("u", "r", "read")).WithResolver(
		ResolverFunc(func(context.Context, *Request, Category, string) (Bag, error) {
			return Singleton(String("from-pip")), nil
		}))
	bag, err := c.Attribute(CategorySubject, AttrSubjectID)
	if err != nil {
		t.Fatal(err)
	}
	if !bag.Contains(String("u")) {
		t.Errorf("request attribute should win over resolver, got %v", bag.Strings())
	}
}

func TestEnvironmentCurrentTime(t *testing.T) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	c := NewContextAt(NewRequest(), at)
	bag, err := c.Attribute(CategoryEnvironment, AttrCurrentTime)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := bag.One()
	if !v.TimeValue().Equal(at) {
		t.Errorf("current-time = %v, want %v", v.TimeValue(), at)
	}
	dateBag, err := c.Attribute(CategoryEnvironment, AttrCurrentDate)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := dateBag.One()
	if d.Str() != "2026-01-02" {
		t.Errorf("current-date = %q, want 2026-01-02", d.Str())
	}
}

func TestRequestCacheKeyDeterministic(t *testing.T) {
	a := NewAccessRequest("u", "r", "read").Add(CategorySubject, AttrSubjectRole, String("x"), String("y"))
	b := NewAccessRequest("u", "r", "read").Add(CategorySubject, AttrSubjectRole, String("y"), String("x"))
	if a.CacheKey() != b.CacheKey() {
		t.Error("cache keys must be order-insensitive over bag values")
	}
	c := NewAccessRequest("u", "r", "write")
	if a.CacheKey() == c.CacheKey() {
		t.Error("different actions must produce different cache keys")
	}
}

func TestRequestCloneIndependence(t *testing.T) {
	a := NewAccessRequest("u", "r", "read")
	b := a.Clone()
	b.Add(CategorySubject, AttrSubjectRole, String("admin"))
	if _, ok := a.Get(CategorySubject, AttrSubjectRole); ok {
		t.Error("mutating clone must not affect original")
	}
}

func TestDecisionHelpers(t *testing.T) {
	if !DecisionPermit.Allows() {
		t.Error("Permit should allow")
	}
	for _, d := range []Decision{DecisionDeny, DecisionNotApplicable, DecisionIndeterminate} {
		if d.Allows() {
			t.Errorf("%v should not allow", d)
		}
	}
	for _, d := range []Decision{DecisionPermit, DecisionDeny, DecisionNotApplicable, DecisionIndeterminate} {
		got, err := DecisionFromString(d.String())
		if err != nil || got != d {
			t.Errorf("round trip %v: %v, %v", d, got, err)
		}
	}
	if _, err := DecisionFromString("Perhaps"); !errorsIsNonNil(err) {
		t.Error("expected parse error")
	}
}

func errorsIsNonNil(err error) bool { return err != nil }

func TestMissingAttributeRequired(t *testing.T) {
	p := NewPolicy("p").
		Rule(Permit("needs-level").
			If(Call(FnGreaterThan,
				Call(FnOneAndOnly, Required(CategorySubject, AttrClearance)),
				Lit(Integer(3)))).
			Build()).
		Build()
	res := p.Evaluate(NewContext(NewAccessRequest("u", "r", "read")))
	if res.Decision != DecisionIndeterminate {
		t.Fatalf("got %v, want Indeterminate for missing required attribute", res.Decision)
	}
	if !errors.Is(res.Err, ErrMissingAttribute) && !errors.Is(res.Err, ErrNotSingleton) {
		t.Errorf("unexpected error chain: %v", res.Err)
	}
}
