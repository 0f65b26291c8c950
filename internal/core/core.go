// Package core is the public facade of the repository: it assembles the
// paper's dependable multi-domain access control architecture from the
// substrate packages and exposes the operations a deployment performs —
// admitting domains into a Virtual Organisation, admitting policies
// through a validation pipeline (structural validation, delegation
// reduction, static conflict analysis), replicating decision points for
// dependability, and issuing authorisation requests through the pull and
// push flows.
//
// Every domain's administration point is gated by analysis.GateStore in
// strict mode, the same pre-commit lint gate pdpd runs: the conflict veto
// is serialised with every write to the domain's store, so concurrent
// admissions cannot both land a conflicting pair, and a direct write to
// the domain's PAP faces it too.
//
// The facade is what the examples and the experiment harness program
// against; each constituent subsystem remains usable on its own.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/analysis"
	"repro/internal/delegation"
	"repro/internal/dialect"
	"repro/internal/federation"
	"repro/internal/ha"
	"repro/internal/pap"
	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/wire"
)

// detRand is a deterministic entropy source so whole systems are
// reproducible from one seed.
type detRand struct{ r *rand.Rand }

func (d *detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

// Config parameterises a System.
type Config struct {
	// Name names the Virtual Organisation.
	Name string
	// Seed drives all key generation and the network loss model.
	Seed int64
	// LinkLatency is the default one-way latency between components.
	LinkLatency time.Duration
	// Epoch is the start of certificate validity and virtual time.
	Epoch time.Time
	// Lifetime bounds certificate validity; one year when zero.
	Lifetime time.Duration
}

func (c Config) withDefaults() Config {
	if c.LinkLatency == 0 {
		c.LinkLatency = 5 * time.Millisecond
	}
	if c.Epoch.IsZero() {
		c.Epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.Lifetime == 0 {
		c.Lifetime = 365 * 24 * time.Hour
	}
	return c
}

// System is an assembled multi-domain access control deployment.
type System struct {
	// Name identifies the system (and its VO).
	Name string
	// Net is the simulated network all components share.
	Net *wire.Network
	// VO is the federation layer.
	VO *federation.VO
	// Epoch is the base of virtual time.
	Epoch time.Time

	cfg     Config
	entropy *detRand
}

// NewSystem assembles a Virtual Organisation with no member domains.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	entropy := &detRand{r: rand.New(rand.NewSource(cfg.Seed))}
	net := wire.NewNetwork(cfg.LinkLatency, cfg.Seed)
	vo, err := federation.NewVO(cfg.Name, net, entropy, cfg.Epoch, cfg.Epoch.Add(cfg.Lifetime))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &System{
		Name:    cfg.Name,
		Net:     net,
		VO:      vo,
		Epoch:   cfg.Epoch,
		cfg:     cfg,
		entropy: entropy,
	}, nil
}

// AddDomain admits a new autonomous domain to the organisation. Its
// administration point is gated in strict mode under the domain root's
// combining algorithm: a write introducing an actual conflict between two
// different policies is refused with analysis.ErrRejected.
func (s *System) AddDomain(name string) (*federation.Domain, error) {
	d, err := federation.NewDomain(name, s.entropy, s.cfg.Epoch, s.cfg.Epoch.Add(s.cfg.Lifetime))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg := analysis.Config{RootCombining: d.Root().Combining}
	if _, _, err := analysis.GateStore(d.PAP, cfg, analysis.ModeStrict); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.VO.AddDomain(d)
	return d, nil
}

// AdmitPolicy runs the paper's policy-management pipeline before a policy
// enters a domain's administration point:
//
//  1. structural validation,
//  2. delegation reduction when the policy names a non-local issuer
//     (Section 3.2, Access Control Delegation), and
//  3. static conflict analysis against the installed base, by the
//     domain's pre-commit lint gate (see AddDomain): actual modality
//     conflicts with another policy are refused with analysis.ErrRejected
//     (Section 3.1, Policy Conflict Resolution) — potential (conditional)
//     conflicts are admitted, since runtime combining algorithms arbitrate
//     them, and so is a clash inside one policy, its author's combining
//     choice. A replacement is not compared with its own previous
//     revision.
func (s *System) AdmitPolicy(d *federation.Domain, p *policy.Policy, at time.Time) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("core: admit %s: %w", p.ID, err)
	}
	if p.Issuer != "" && p.Issuer != "authority."+d.Name {
		if err := s.VO.Delegation.ValidatePolicy(p, at); err != nil {
			return fmt.Errorf("core: admit %s: %w", p.ID, err)
		}
	}
	if _, err := d.PAP.Put(p); err != nil {
		return fmt.Errorf("core: admit %s: %w", p.ID, err)
	}
	return nil
}

// AdmitDialectSource translates a local-dialect policy document (Section
// 3.1, Policy Heterogeneity Management) and admits every policy in it
// through the same pipeline as AdmitPolicy. Admission is atomic per
// policy, not per document: an early policy may be installed when a later
// one is refused, matching PAP versioning semantics (re-admitting the
// fixed document overwrites by ID).
func (s *System) AdmitDialectSource(d *federation.Domain, src string, at time.Time) error {
	doc, err := dialect.Parse(src)
	if err != nil {
		return fmt.Errorf("core: admit dialect: %w", err)
	}
	pols, err := dialect.Compile(doc)
	if err != nil {
		return fmt.Errorf("core: admit dialect: %w", err)
	}
	for _, p := range pols {
		if err := s.AdmitPolicy(d, p, at); err != nil {
			return err
		}
	}
	return nil
}

// Delegate grants issuing authority from one VO authority to another; use
// "authority.<domain>" or "authority.<vo>" names. Root authorities are
// registered automatically when domains join.
func (s *System) Delegate(delegator, delegate string, scope delegation.Scope, maxDepth int, expires, at time.Time) (*delegation.Grant, error) {
	return s.VO.Delegation.Delegate(delegator, delegate, scope, maxDepth, expires, at)
}

// ReplicatePDP replaces a domain's single decision point with an ensemble
// of n replicas sharing the domain's policy base, returning the replica
// handles for failure injection and the ensemble for inspection. The
// domain keeps serving through the federation flows; decisions route
// through the ensemble.
func (s *System) ReplicatePDP(d *federation.Domain, n int, strategy ha.Strategy) (*ha.Ensemble, []*ha.Failable, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("core: need at least one replica")
	}
	root, err := d.PAP.BuildRoot(d.Root())
	if err != nil {
		return nil, nil, fmt.Errorf("core: replicate %s: %w", d.Name, err)
	}
	replicas := make([]*ha.Failable, n)
	for i := 0; i < n; i++ {
		engine := pdp.New(fmt.Sprintf("%s-replica-%d", d.Name, i))
		if err := engine.SetRoot(root); err != nil {
			return nil, nil, fmt.Errorf("core: replicate %s: %w", d.Name, err)
		}
		replicas[i] = ha.NewFailable(engine.Name(), engine)
	}
	ensemble := ha.NewEnsemble(d.Name+"-ensemble", strategy, replicas...)
	return ensemble, replicas, nil
}

// InstallReplicatedPDP replicates a domain's decision point and wires the
// ensemble into the federated flows: every access handled by the domain's
// PEP is decided by the ensemble, and PAP updates reach every replica
// through the incremental delta pipeline — each update patches the one
// affected root child per replica (invalidating only that child's cached
// decisions) instead of rebuilding and reinstalling the whole root, so
// revocations reach the ensemble without flushing every decision cache.
// Refresh failures are surfaced through the domain's RefreshErrors counter
// and OnRefreshError callback. Returns the replica handles for failure
// injection.
func (s *System) InstallReplicatedPDP(d *federation.Domain, n int, strategy ha.Strategy) (*ha.Ensemble, []*ha.Failable, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("core: need at least one replica")
	}
	replicas := make([]*ha.Failable, n)
	for i := range replicas {
		engine := pdp.New(fmt.Sprintf("%s-replica-%d", d.Name, i))
		if err := pap.Follow(engine, d.PAP, d.Root(), d.ReportRefreshError); err != nil {
			return nil, nil, fmt.Errorf("core: replicate %s: %w", d.Name, err)
		}
		replicas[i] = ha.NewFailable(engine.Name(), engine)
	}
	ensemble := ha.NewEnsemble(d.Name+"-ensemble", strategy, replicas...)
	d.UseDecider(ensemble)
	return ensemble, replicas, nil
}

// At converts an offset from the system epoch into an absolute virtual
// time, the convention experiments use.
func (s *System) At(offset time.Duration) time.Time { return s.Epoch.Add(offset) }
