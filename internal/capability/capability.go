// Package capability implements the capability-issuing (push-model)
// security architecture of Fig. 2 in the paper: a trusted capability
// service that pre-screens clients against policy and issues signed
// capabilities, which clients attach to business-service calls for
// validation at the enforcement point.
//
// Two encodings mirror the paper's two exemplar systems:
//
//   - CAS-style capabilities: assertions carrying an authorisation
//     decision statement for one (resource, action) pair, and
//   - VOMS-style attribute certificates: assertions carrying the
//     subject's attributes (roles, groups), leaving the final decision to
//     the resource provider's local policy.
package capability

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/assertion"
	"repro/internal/pki"
	"repro/internal/policy"
)

// Errors surfaced by the capability service and validator.
var (
	// ErrNotAuthorized reports a capability request the policy denied.
	ErrNotAuthorized = errors.New("capability: policy denies the requested capability")
	// ErrInsufficient reports a capability that does not cover the
	// attempted access.
	ErrInsufficient = errors.New("capability: capability does not cover this access")
	// ErrNoDecision reports a capability without a decision statement
	// used where one is required.
	ErrNoDecision = errors.New("capability: assertion carries no authorisation decision")
)

// AttributeSource abstracts the directory used for VOMS-style attribute
// certificates; *pip.Directory's typed accessors are adapted through this
// narrow interface (it matches policy.Resolver, ctx included).
type AttributeSource interface {
	ResolveAttribute(ctx context.Context, req *policy.Request, cat policy.Category, name string) (policy.Bag, error)
}

// Service is the trusted capability service of Fig. 2.
type Service struct {
	// Issuer is the service's distinguished name, matching its
	// certificate subject.
	issuer string
	key    pki.KeyPair
	pdp    policy.Decider
	attrs  AttributeSource
	ttl    time.Duration
	now    func() time.Time

	mu     sync.Mutex
	serial uint64
	// Issued counts capabilities granted, Rejected counts refusals;
	// exposed for experiments.
	issued, rejected int64
}

// NewService builds a capability service consulting pdp; ctx bounds each
// decision query.
func NewService(issuer string, key pki.KeyPair, pdp policy.Decider, attrs AttributeSource, ttl time.Duration) *Service {
	return &Service{issuer: issuer, key: key, pdp: pdp, attrs: attrs, ttl: ttl, now: time.Now}
}

// WithClock overrides the service clock for deterministic tests.
func (s *Service) WithClock(now func() time.Time) *Service {
	s.now = now
	return s
}

// Issuer returns the service's distinguished name.
func (s *Service) Issuer() string { return s.issuer }

// Counts returns how many capabilities were issued and rejected.
func (s *Service) Counts() (issued, rejected int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.issued, s.rejected
}

func (s *Service) nextID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.serial++
	return s.issuer + "/cap-" + strconv.FormatUint(s.serial, 10)
}

// IssueCapability evaluates the capability request (I in Fig. 2) against
// policy and, on Permit, returns a signed CAS-style capability (II)
// asserting that subject may perform action on resource. The audience pins
// the capability to one resource provider; empty means unrestricted.
func (s *Service) IssueCapability(ctx context.Context, req *policy.Request, audience string) (*assertion.Assertion, error) {
	now := s.now()
	res := policy.Decide(ctx, s.pdp, req, now)
	if res.Decision != policy.DecisionPermit {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		return nil, fmt.Errorf("capability: subject %s, action %s, resource %s: decision %s: %w",
			req.SubjectID(), req.ActionID(), req.ResourceID(), res.Decision, ErrNotAuthorized)
	}
	a := &assertion.Assertion{
		ID:           s.nextID(),
		Issuer:       s.issuer,
		Subject:      req.SubjectID(),
		IssuedAt:     now,
		NotBefore:    now,
		NotOnOrAfter: now.Add(s.ttl),
		Audience:     audience,
		Decision: &assertion.AuthzDecision{
			Resource: req.ResourceID(),
			Action:   req.ActionID(),
			Decision: policy.DecisionPermit,
		},
	}
	a.Sign(s.key)
	s.mu.Lock()
	s.issued++
	s.mu.Unlock()
	return a, nil
}

// IssueAttributeCertificate returns a signed VOMS-style attribute
// certificate carrying the subject's attributes from the configured
// attribute source. The resource provider evaluates its own policy against
// these attributes, retaining the final decision as the paper describes.
func (s *Service) IssueAttributeCertificate(ctx context.Context, subject string, attrNames []string, audience string) (*assertion.Assertion, error) {
	if s.attrs == nil {
		return nil, errors.New("capability: no attribute source configured")
	}
	now := s.now()
	probe := policy.NewRequest().Add(policy.CategorySubject, policy.AttrSubjectID, policy.String(subject))
	attrs := make(map[string]policy.Bag, len(attrNames))
	for _, name := range attrNames {
		bag, err := s.attrs.ResolveAttribute(ctx, probe, policy.CategorySubject, name)
		if err != nil {
			return nil, fmt.Errorf("capability: resolve %s: %w", name, err)
		}
		if !bag.Empty() {
			attrs[name] = bag
		}
	}
	a := &assertion.Assertion{
		ID:           s.nextID(),
		Issuer:       s.issuer,
		Subject:      subject,
		IssuedAt:     now,
		NotBefore:    now,
		NotOnOrAfter: now.Add(s.ttl),
		Audience:     audience,
		Attributes:   attrs,
	}
	a.Sign(s.key)
	s.mu.Lock()
	s.issued++
	s.mu.Unlock()
	return a, nil
}

// Validator is the enforcement-point side of the push model: it verifies
// presented capabilities against the provider's trust store and checks
// sufficiency for the attempted access (IV in Fig. 2).
type Validator struct {
	// Trust anchors issuer certificates.
	Trust *pki.TrustStore
	// IssuerCerts maps issuer names to their certificates.
	IssuerCerts map[string]*pki.Certificate
	// Audience is this resource provider's identity.
	Audience string
}

// NewValidator builds a validator trusting the given issuer certificates.
func NewValidator(trust *pki.TrustStore, audience string, issuerCerts ...*pki.Certificate) *Validator {
	m := make(map[string]*pki.Certificate, len(issuerCerts))
	for _, c := range issuerCerts {
		m[c.Subject] = c
	}
	return &Validator{Trust: trust, IssuerCerts: m, Audience: audience}
}

// verify runs the common assertion checks.
func (v *Validator) verify(a *assertion.Assertion, at time.Time) error {
	cert := v.IssuerCerts[a.Issuer]
	return a.Verify(assertion.VerifyOptions{
		Trust:      v.Trust,
		IssuerCert: cert,
		At:         at,
		Audience:   v.Audience,
	})
}

// ValidateCapability checks a CAS-style capability: signature, window,
// audience, and that its decision statement covers (resource, action). On
// success the access may proceed without consulting a PDP.
func (v *Validator) ValidateCapability(a *assertion.Assertion, resource, action string, at time.Time) error {
	if err := v.verify(a, at); err != nil {
		return err
	}
	if a.Decision == nil {
		return fmt.Errorf("capability %s: %w", a.ID, ErrNoDecision)
	}
	if a.Decision.Decision != policy.DecisionPermit {
		return fmt.Errorf("capability %s asserts %s: %w", a.ID, a.Decision.Decision, ErrInsufficient)
	}
	if a.Decision.Resource != resource || a.Decision.Action != action {
		return fmt.Errorf("capability %s covers (%s,%s), access is (%s,%s): %w",
			a.ID, a.Decision.Resource, a.Decision.Action, resource, action, ErrInsufficient)
	}
	return nil
}

// ExtractAttributes checks a VOMS-style attribute certificate and, on
// success, merges its attribute statements into the request's subject
// category so the provider's local PDP can evaluate them.
func (v *Validator) ExtractAttributes(a *assertion.Assertion, req *policy.Request, at time.Time) error {
	if err := v.verify(a, at); err != nil {
		return err
	}
	if a.Subject != req.SubjectID() {
		return fmt.Errorf("capability %s issued to %s, request by %s: %w",
			a.ID, a.Subject, req.SubjectID(), ErrInsufficient)
	}
	for name, bag := range a.Attributes {
		req.Set(policy.CategorySubject, name, bag)
	}
	return nil
}
