package pdp

import (
	"sync/atomic"

	"repro/internal/policy"
)

// statsStripes is the number of counter stripes decisions scatter across;
// a power of two so stripe selection is a mask of the request hash.
const statsStripes = 8

// decisionCounters is one stripe of the engine's decision counters. The
// trailing pad rounds the struct to a multiple of the cache line, so
// stripes incremented by different cores never false-share.
type decisionCounters struct {
	evaluations       atomic.Int64
	cacheHits         atomic.Int64
	permits           atomic.Int64
	denies            atomic.Int64
	notApplicables    atomic.Int64
	indeterminates    atomic.Int64
	indexedCandidates atomic.Int64
	compiledEvals     atomic.Int64
	fallbackEvals     atomic.Int64
	maxCandidates     atomic.Int64
	_                 [48]byte
}

// evalPath says how one computed decision was reached: the candidate-set
// size considered, whether the compiled program answered it, and whether
// that program ran any child in the interpreter.
type evalPath struct {
	candidates int
	compiled   bool
	fallback   bool
}

// recordEvaluation counts one computed (non-cached) decision: the
// evaluation itself, the candidates it considered (and the running
// maximum), the path that answered it, and the outcome.
func (c *decisionCounters) recordEvaluation(res policy.Result, path evalPath) {
	c.evaluations.Add(1)
	c.indexedCandidates.Add(int64(path.candidates))
	if path.compiled {
		c.compiledEvals.Add(1)
	}
	if path.fallback {
		c.fallbackEvals.Add(1)
	}
	if n := int64(path.candidates); n > c.maxCandidates.Load() {
		for {
			cur := c.maxCandidates.Load()
			if n <= cur || c.maxCandidates.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	c.record(res.Decision)
}

func (c *decisionCounters) record(d policy.Decision) {
	switch d {
	case policy.DecisionPermit:
		c.permits.Add(1)
	case policy.DecisionDeny:
		c.denies.Add(1)
	case policy.DecisionNotApplicable:
		c.notApplicables.Add(1)
	case policy.DecisionIndeterminate:
		c.indeterminates.Add(1)
	}
}

// engineStats is the lock-free mutable form of Stats: the decision hot
// path increments a hash-selected stripe, writers bump the two
// administration counters, and Stats() aggregates everything on read.
type engineStats struct {
	stripes            [statsStripes]decisionCounters
	updates            atomic.Int64
	cacheInvalidations atomic.Int64
}

func (s *engineStats) stripe(hash uint64) *decisionCounters {
	return &s.stripes[hash&(statsStripes-1)]
}

func (s *engineStats) snapshot() Stats {
	var out Stats
	for i := range s.stripes {
		c := &s.stripes[i]
		out.Evaluations += c.evaluations.Load()
		out.CacheHits += c.cacheHits.Load()
		out.Permits += c.permits.Load()
		out.Denies += c.denies.Load()
		out.NotApplicables += c.notApplicables.Load()
		out.Indeterminates += c.indeterminates.Load()
		out.IndexedCandidates += c.indexedCandidates.Load()
		out.CompiledEvaluations += c.compiledEvals.Load()
		out.FallbackEvaluations += c.fallbackEvals.Load()
		if m := c.maxCandidates.Load(); m > out.MaxCandidates {
			out.MaxCandidates = m
		}
	}
	out.InterpretedEvaluations = out.Evaluations - out.CompiledEvaluations
	out.Updates = s.updates.Load()
	out.CacheInvalidations = s.cacheInvalidations.Load()
	return out
}
