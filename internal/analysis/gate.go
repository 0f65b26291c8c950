package analysis

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/pap"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// Analyze runs a from-scratch analysis of the given root children under
// the config — the batch entry point behind acctl lint and the per-shard
// router aggregation.
func Analyze(cfg Config, children ...policy.Evaluable) Report {
	e := NewEngine(cfg)
	e.Install(children...)
	return e.Report()
}

// Mode selects how the admin-plane gate treats findings.
type Mode int

// Gate modes.
const (
	// ModeOff disables linting entirely.
	ModeOff Mode = iota + 1
	// ModeWarn analyses every write and annotates it with its findings,
	// but never rejects.
	ModeWarn
	// ModeStrict additionally rejects writes whose findings include a
	// SeverityError: an actual cross-policy conflict or a cross-policy
	// shadow. Strict mode fails closed — a rejected write never reaches
	// the store.
	ModeStrict
)

// String returns the canonical mode name.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeWarn:
		return "warn"
	case ModeStrict:
		return "strict"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode parses off|warn|strict.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return ModeOff, nil
	case "warn":
		return ModeWarn, nil
	case "strict":
		return ModeStrict, nil
	default:
		return 0, fmt.Errorf("analysis: unknown lint mode %q (want off, warn or strict)", s)
	}
}

// ErrRejected marks a write the strict gate refused.
var ErrRejected = errors.New("analysis: policy rejected by lint gate")

// GateStats snapshots gate counters.
type GateStats struct {
	// Checks counts writes analysed, Rejections those strict mode
	// refused.
	Checks, Rejections int64
}

// Gate fronts an Engine for the administration plane: Check previews a
// write and, in strict mode, rejects it when the preview contains a
// blocking finding. A nil Gate checks nothing and admits everything, so
// callers can wire it unconditionally.
type Gate struct {
	engine *Engine
	mode   Mode

	checks, rejections atomic.Int64
}

// NewGate wraps the engine in the given mode.
func NewGate(e *Engine, m Mode) *Gate {
	if m == 0 {
		m = ModeOff
	}
	return &Gate{engine: e, mode: m}
}

// Mode reports the gate's mode; a nil gate is off.
func (g *Gate) Mode() Mode {
	if g == nil {
		return ModeOff
	}
	return g.mode
}

// Check previews replacing root child id with ev (nil = delete). It
// returns the findings the write would introduce and, in strict mode, a
// wrapped ErrRejected when any of them blocks. The caller decides what to
// do with a non-blocking report: pdpd returns it in the admin response
// body.
func (g *Gate) Check(id string, ev policy.Evaluable) (Report, error) {
	if g == nil || g.mode == ModeOff || g.engine == nil {
		return Report{}, nil
	}
	g.checks.Add(1)
	rep := g.engine.Preview(id, ev)
	if g.mode == ModeStrict {
		if blocking := rep.Blocking(); len(blocking) > 0 {
			g.rejections.Add(1)
			return rep, fmt.Errorf("%w: %s", ErrRejected, blocking[0].Detail)
		}
	}
	return rep, nil
}

// GateStore is the one way a policy store is gated. It seeds an Engine
// under cfg from the store's live base, atomically with the watcher that
// folds every later update into it (pap.Store.WatchInstall), so no write
// slips between the snapshot and the delta stream. It then registers the
// Gate's Check as a pre-commit hook: the veto is serialised with every
// writer and runs before the write is durable or visible. ModeOff gates
// nothing and returns a nil engine and gate.
func GateStore(s *pap.Store, cfg Config, mode Mode) (*Engine, *Gate, error) {
	if mode == ModeOff {
		return nil, nil, nil
	}
	eng := NewEngine(cfg)
	err := s.WatchInstall(func(s *pap.Store) error {
		eng.Install(s.Live()...)
		return nil
	}, func(u pap.Update) { eng.Apply(u.ID, u.Policy) })
	if err != nil {
		return nil, nil, err
	}
	g := NewGate(eng, mode)
	s.PreCommit(func(u pap.Update) error {
		_, err := g.Check(u.ID, u.Policy)
		return err
	})
	return eng, g, nil
}

// Stats snapshots the gate counters; zero for a nil gate.
func (g *Gate) Stats() GateStats {
	if g == nil {
		return GateStats{}
	}
	return GateStats{Checks: g.checks.Load(), Rejections: g.rejections.Load()}
}

// RegisterMetrics exposes the gate counters on the registry.
func (g *Gate) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("repro_analysis_gate_checks_total",
		"Admin-plane writes analysed by the policy lint gate.",
		func() int64 { return g.Stats().Checks })
	reg.CounterFunc("repro_analysis_gate_rejections_total",
		"Admin-plane writes the strict lint gate refused.",
		func() int64 { return g.Stats().Rejections })
}
