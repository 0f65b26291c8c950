// Package pdp implements the Policy Decision Point: the engine that
// evaluates authorisation decision queries against the policy base
// (Section 2.2 of the paper).
//
// The engine supports two performance mechanisms the paper's challenges
// motivate: a compiled decision program that narrows each miss to the
// policies whose targets can apply to the request (Section 3
// scalability), and an optional TTL decision cache bounding PEP–PDP
// traffic (Section 3.2 Communication Performance).
//
// The decision hot path is lock-free for readers, RCU-style: the root,
// compiled program and epoch live in one immutable snapshot published
// through an atomic pointer, so a decision call loads a single pointer
// however many requests it carries, and never blocks on policy
// administration. The decision cache is a policy.DecisionCache striped by
// a hash of the request's cache key — a cache hit costs one stripe lock
// and zero allocations — and engine counters are padded atomic stripes
// aggregated on read. Writers (SetRoot, ApplyUpdate, FlushCache)
// serialize on a writer lock, publish the next snapshot, and then
// invalidate; the cache's generation, read before each evaluation, guards
// it against resurrection of a decision evaluated against a superseded
// root.
//
// A single engine is also the building block of larger deployments. Its
// one decision body is the scatter call (policy.Decider): it answers any
// selection of a request batch per call, a single decision being a
// one-position scatter, sharing one snapshot load and one miss path.
// internal/ha replicates engines into failover/quorum ensembles, and
// internal/cluster shards the policy base across many such ensembles
// behind a consistent-hash router — the horizontal answer to the Section 3
// performance argument when one engine's throughput ceiling is reached.
//
// At publication the root is compiled into a flattened decision program
// (see compile.go): per-child rule arrays with precomputed decisions,
// decider chains and statically fulfilled obligations, indexed by
// attribute-keyed posting lists over resource-id, action-id and
// subject-role. A cache miss then assembles a candidate set
// from the attributes the request carries and runs the combining algorithm
// over those children only, allocation-free once warm. The program lives
// inside the snapshot, so readers get it off the same single atomic load.
// Compilation is semantics-preserving by construction: constructs the
// compiler does not cover (rule conditions, dynamic obligation values,
// custom match predicates, nested policy sets) fall back to the
// interpreter per child, chosen at compile time — never per request — and
// a root the compiler cannot handle at all (not a policy set, root-level
// obligations, a non-equality root target, an unknown algorithm) leaves
// the program nil and the root's own interpretive Evaluate in charge.
// ApplyUpdate recompiles only the patched child and remaps the posting
// lists.
//
// The engine also supports live policy administration: ApplyUpdate
// patches one root child in place — program patched, not rebuilt; only the
// changed child's resource keys invalidated from the decision cache — so
// a policy write never flushes the working set the way SetRoot must (see
// update.go).
//
// Every decision is bounded by the caller's context.Context: a deadline
// or cancellation — observed at entry, between batch positions, and
// inside resolver round-trips mid-evaluation — surfaces as Indeterminate
// carrying the cause, which deny-biased enforcement points refuse. A
// result poisoned by an expired context is never written to the decision
// cache.
package pdp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrNoPolicy is returned when the engine is asked to decide before any
// policy has been loaded.
var ErrNoPolicy = errors.New("pdp: no policy loaded")

// ctxResult renders a done request context as the fail-closed decision the
// pipeline surfaces everywhere: Indeterminate carrying the cancellation or
// deadline cause as its status message. Deny-biased enforcement points
// refuse it, so running out of time never grants access.
func ctxResult(name string, err error) policy.Result {
	return policy.Result{
		Decision: policy.DecisionIndeterminate,
		Err:      fmt.Errorf("pdp %s: request context done before decision: %w", name, err),
	}
}

// traceDecision annotates a single decision's span with its outcome.
// Indeterminate decisions force trace retention (trace.Span.Keep): the
// decisions that need explaining most are always captured, whatever the
// sampling rate. A nil span (untraced request) costs nothing.
func (e *Engine) traceDecision(sp *trace.Span, epoch uint64, res policy.Result, cache string, candidates int) {
	if sp == nil {
		return
	}
	sp.SetAttr("pdp.engine", e.name)
	sp.SetAttr("pdp.cache", cache)
	sp.SetAttr("pdp.decision", res.Decision.String())
	sp.SetInt("pdp.epoch", int64(epoch))
	if candidates > 0 {
		sp.SetInt("pdp.candidates", int64(candidates))
	}
	if res.Decision == policy.DecisionIndeterminate {
		sp.Keep()
	}
}

// Stats aggregates engine activity for experiments and monitoring.
type Stats struct {
	// Evaluations counts decisions computed (cache misses included).
	Evaluations int64
	// CacheHits counts decisions served from the decision cache.
	CacheHits int64
	// Permits, Denies, NotApplicables and Indeterminates count outcomes.
	Permits, Denies, NotApplicables, Indeterminates int64
	// IndexedCandidates sums the candidate-set sizes the compiled program
	// considered, for measuring its selectivity.
	IndexedCandidates int64
	// Updates counts incremental root patches applied via ApplyUpdate.
	Updates int64
	// CacheInvalidations counts cached decisions dropped by ApplyUpdate
	// (a full catch-all flush counts once).
	CacheInvalidations int64
	// CacheEntries is the number of decisions cached at snapshot time, a
	// gauge summed across cache shards (zero when the cache is disabled).
	CacheEntries int64
	// CompiledEvaluations counts evaluations answered by the compiled
	// decision program; InterpretedEvaluations counts the rest (no program:
	// the root was uncompilable).
	CompiledEvaluations    int64
	InterpretedEvaluations int64
	// FallbackEvaluations counts the compiled evaluations in which at
	// least one root child ran in the interpreter because the compiler
	// could not lower it (once per evaluation, however many children).
	FallbackEvaluations int64
	// MaxCandidates is the largest candidate set a single evaluation
	// considered, complementing the IndexedCandidates sum for selectivity
	// monitoring.
	MaxCandidates int64
	// Compiles counts policy-base compilations (full on SetRoot, delta on
	// ApplyUpdate) and CompileNanos sums their wall time.
	Compiles     int64
	CompileNanos int64
	// CompiledChildren and RootChildren describe the current program's
	// coverage: how many direct root children compiled versus fell back to
	// the interpreter. Both are zero when no program is installed.
	CompiledChildren int64
	RootChildren     int64
}

// SumStats adds up the engines' counters and gauges, MaxCandidates taking
// the largest: the deployment-wide view the repro_pdp_* families and
// cluster.Router.EngineStats report. A new Stats field is summed here.
func SumStats(engines []*Engine) Stats {
	var sum Stats
	for _, e := range engines {
		st := e.Stats()
		sum.Evaluations += st.Evaluations
		sum.CacheHits += st.CacheHits
		sum.Permits += st.Permits
		sum.Denies += st.Denies
		sum.NotApplicables += st.NotApplicables
		sum.Indeterminates += st.Indeterminates
		sum.IndexedCandidates += st.IndexedCandidates
		sum.Updates += st.Updates
		sum.CacheInvalidations += st.CacheInvalidations
		sum.CacheEntries += st.CacheEntries
		sum.CompiledEvaluations += st.CompiledEvaluations
		sum.InterpretedEvaluations += st.InterpretedEvaluations
		sum.FallbackEvaluations += st.FallbackEvaluations
		sum.MaxCandidates = max(sum.MaxCandidates, st.MaxCandidates)
		sum.Compiles += st.Compiles
		sum.CompileNanos += st.CompileNanos
		sum.CompiledChildren += st.CompiledChildren
		sum.RootChildren += st.RootChildren
	}
	return sum
}

// Option configures an Engine.
type Option func(*Engine)

// WithResolver attaches the information-point resolver consulted for
// attributes missing from requests.
func WithResolver(r policy.Resolver) Option {
	return func(e *Engine) { e.resolver = r }
}

// WithDecisionCache enables a TTL decision cache. maxItems <= 0 defaults to
// 8192 entries.
func WithDecisionCache(ttl time.Duration, maxItems int) Option {
	return func(e *Engine) {
		if maxItems <= 0 {
			maxItems = 8192
		}
		e.cache = policy.NewDecisionCache(ttl, maxItems)
	}
}

// WithClock overrides the engine clock, used by deterministic tests and the
// virtual-time simulator.
func WithClock(now func() time.Time) Option {
	return func(e *Engine) { e.now = now }
}

// snapshot is the immutable unit of the engine's RCU scheme: the installed
// policy base, its compiled program, and the epoch that publication
// bumped. Readers load one snapshot per decision (per batch, for the batch
// paths) and evaluate against it without locks; writers construct the next
// snapshot copy-on-write and publish it atomically, never mutating one a
// reader may hold.
type snapshot struct {
	root policy.Evaluable
	// prog is the compiled decision program, nil when the root is
	// uncompilable. Non-nil, it decides every miss; nil, root.Evaluate
	// does.
	prog *program
	// epoch counts snapshot publications (installs, patches and flushes).
	// It labels traces and repro_pdp_epoch.
	epoch uint64
}

// Engine is a thread-safe Policy Decision Point. Decisions never block on
// each other or on policy administration: they share an atomically
// published snapshot, a striped decision cache and striped atomic counters.
type Engine struct {
	name     string
	resolver policy.Resolver
	now      func() time.Time

	// compiles / compileNanos / compileHist account policy-base
	// compilation work: full compiles at SetRoot and delta recompiles at
	// ApplyUpdate. Telemetry only — never consulted on the decision path.
	compiles     atomic.Int64
	compileNanos atomic.Int64
	compileHist  telemetry.Histogram

	// snap is the current root/program/epoch triple, nil until SetRoot.
	snap atomic.Pointer[snapshot]
	// cache is the TTL decision cache, nil when disabled.
	cache *policy.DecisionCache
	stats engineStats

	// writerMu serializes snapshot publication (SetRoot, ApplyUpdate,
	// FlushCache) and orders each publication before its cache
	// invalidation — the pairing the cache's generation guard relies on.
	// Decision paths never take it.
	writerMu sync.Mutex
}

// New builds an engine with the given options.
func New(name string, opts ...Option) *Engine {
	e := &Engine{name: name, now: time.Now}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Name identifies the engine in diagnostics.
func (e *Engine) Name() string { return e.name }

// SetRoot validates and installs the policy base, compiling it and
// flushing the decision cache so revocations take effect.
func (e *Engine) SetRoot(root policy.Evaluable) error {
	if root == nil {
		return fmt.Errorf("pdp %s: nil root", e.name)
	}
	if err := root.Validate(); err != nil {
		return fmt.Errorf("pdp %s: %w", e.name, err)
	}
	start := time.Now()
	prog := compileProgram(root)
	if prog != nil {
		e.observeCompile(time.Since(start))
	}
	e.writerMu.Lock()
	defer e.writerMu.Unlock()
	epoch := uint64(1)
	if old := e.snap.Load(); old != nil {
		epoch = old.epoch + 1
	}
	e.snap.Store(&snapshot{root: root, prog: prog, epoch: epoch})
	if e.cache != nil {
		e.cache.Flush()
	}
	return nil
}

// observeCompile accounts one successful policy-base compilation (full or
// delta) for stats and the repro_pdp_compile_ns histogram.
func (e *Engine) observeCompile(d time.Duration) {
	e.compiles.Add(1)
	e.compileNanos.Add(int64(d))
	e.compileHist.Observe(d)
}

// Root returns the installed policy base, or nil.
func (e *Engine) Root() policy.Evaluable {
	if snap := e.snap.Load(); snap != nil {
		return snap.root
	}
	return nil
}

// Stats returns a snapshot of the engine counters, aggregated across the
// atomic stat stripes.
func (e *Engine) Stats() Stats {
	st := e.stats.snapshot()
	if e.cache != nil {
		st.CacheEntries = e.cache.Len()
	}
	st.Compiles = e.compiles.Load()
	st.CompileNanos = e.compileNanos.Load()
	if snap := e.snap.Load(); snap != nil && snap.prog != nil {
		st.CompiledChildren = int64(snap.prog.compiled)
		st.RootChildren = int64(len(snap.prog.children))
	}
	return st
}

// FlushCache drops all cached decisions.
func (e *Engine) FlushCache() {
	e.writerMu.Lock()
	defer e.writerMu.Unlock()
	if old := e.snap.Load(); old != nil {
		e.snap.Store(&snapshot{root: old.root, prog: old.prog, epoch: old.epoch + 1})
	}
	if e.cache != nil {
		e.cache.Flush()
	}
}

// evaluate runs one uncached evaluation against the snapshot with a pooled
// evaluation context carrying the request ctx: the compiled program when
// the root compiled, the root's own interpretive Evaluate otherwise. It is
// the one miss path every decision shares. resolver nil falls
// back to the engine's configured resolver. The Result never aliases the
// evaluation context, so it is released before return.
func (e *Engine) evaluate(ctx context.Context, snap *snapshot, req *policy.Request, at time.Time, resolver policy.Resolver) (policy.Result, evalPath) {
	ec := policy.AcquireContext(ctx, req, at)
	if resolver == nil {
		resolver = e.resolver
	}
	if resolver != nil {
		ec.WithResolver(resolver)
	}
	var res policy.Result
	var path evalPath
	if snap.prog != nil {
		res, path.candidates, path.fallback = snap.prog.evaluate(ec, req)
		path.compiled = true
	} else {
		res = snap.root.Evaluate(ec)
	}
	policy.ReleaseContext(ec)
	return res, path
}

// cacheable reports whether an evaluated result may be written back:
// never an errored one — a PIP outage or an expired caller is not an
// answer, and once the dependency heals the key must be evaluated afresh.
func cacheable(res policy.Result) bool {
	return res.Err == nil
}

// DecideAt decides one request: a one-position scatter over stack
// arrays, so a cache hit stays allocation-free. bench/ladder.go calls it.
func (e *Engine) DecideAt(ctx context.Context, req *policy.Request, at time.Time) policy.Result {
	var out [1]policy.Result
	e.DecideScatterAt(ctx, []*policy.Request{req}, nil, at, nil, out[:])
	return out[0]
}

// DecideBatchAt decides many requests; result i answers request i.
// bench/ladder.go calls it.
func (e *Engine) DecideBatchAt(ctx context.Context, reqs []*policy.Request, at time.Time) []policy.Result {
	return policy.DecideBatch(ctx, e, reqs, at)
}

// DecideScatterAt implements policy.Decider, the engine's one evaluation
// body: evaluate reqs[p] for every p in positions (nil means every
// request) and write each result to out[p]. The whole call evaluates
// against one snapshot, so its decisions are mutually consistent; a zero
// at evaluates at the engine clock. A cache hit takes no engine-wide lock
// — one snapshot pointer load, one shard mutex, zero allocations for a
// single position — and every miss takes the one evaluation path
// (evaluate). A non-nil resolver replaces the engine's for every position
// and bypasses the decision cache, which is neither read nor filled: the
// resolver's view may differ per call. A ctx done before or mid-call
// stops evaluating: finished positions keep their decisions, unfinished
// ones are Indeterminate with the cause, never a hang.
func (e *Engine) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, at time.Time, resolver policy.Resolver, out []policy.Result) {
	n := len(reqs)
	if positions != nil {
		n = len(positions)
	}
	if n == 0 {
		return
	}
	fail := func(res policy.Result) {
		policy.EachPosition(len(reqs), positions, func(p int) { out[p] = res })
	}
	if err := ctx.Err(); err != nil {
		fail(ctxResult(e.name, err))
		return
	}
	// The cache generation is read before the snapshot: a writer publishes
	// its snapshot before moving the generation, so a fill of a decision
	// evaluated against a superseded snapshot carries a superseded
	// generation and is dropped, or lands before the sweep that removes it.
	var gen uint64
	if e.cache != nil {
		gen = e.cache.Generation()
	}
	snap := e.snap.Load()
	if snap == nil {
		fail(policy.Result{Decision: policy.DecisionIndeterminate, Err: ErrNoPolicy})
		return
	}
	if at.IsZero() {
		at = e.now()
	}

	// Tracing follows how many positions the call selects. One position is
	// a single decision, whoever sent it (a caller's Decide, a router's
	// shard group of one, in a batch too): a hit annotates the caller's
	// span, which must be this goroutine's alone, and a miss opens a
	// pdp.eval span under which resolver fetches nest. More positions are
	// a batch covered by one pdp.batch span, so a traced batch costs one
	// span, not one per request.
	sp := trace.FromContext(ctx)
	single := n == 1
	var batchSpan *trace.Span
	if sp != nil && !single {
		ctx, batchSpan = trace.StartSpan(ctx, "pdp.batch")
		batchSpan.SetAttr("pdp.engine", e.name)
		batchSpan.SetInt("pdp.epoch", int64(snap.epoch))
		batchSpan.SetInt("batch.n", int64(n))
		defer func() {
			indeterminate := 0
			policy.EachPosition(len(reqs), positions, func(p int) {
				if out[p].Decision == policy.DecisionIndeterminate {
					indeterminate++
				}
			})
			if indeterminate > 0 {
				batchSpan.SetInt("batch.indeterminate", int64(indeterminate))
				batchSpan.Keep()
			}
			batchSpan.End()
		}()
	}

	// A single decision is a one-position scatter: its miss list lives on
	// the stack, keeping the cache-hit path allocation-free.
	var one [1]int
	misses := one[:0]
	if n > len(one) {
		misses = make([]int, 0, n)
	}
	cached := e.cache != nil && resolver == nil
	if cached {
		sweep := func(p int) {
			req := reqs[p]
			key := req.CacheKey()
			hash := req.CacheKeyHash()
			if res, _, ok, _ := e.cache.Get(key, hash, at); ok {
				out[p] = res
				st := e.stats.stripe(hash)
				st.cacheHits.Add(1)
				st.record(res.Decision)
				if single {
					e.traceDecision(sp, snap.epoch, res, "hit", 0)
				}
				return
			}
			misses = append(misses, p)
		}
		if positions == nil {
			for p := range reqs {
				sweep(p)
			}
		} else {
			for _, p := range positions {
				sweep(p)
			}
		}
	} else if positions == nil {
		for p := range reqs {
			misses = append(misses, p)
		}
	} else {
		misses = positions
	}

	batchSpan.SetInt("batch.misses", int64(len(misses)))
	cache := "miss"
	if e.cache == nil {
		cache = "off"
	} else if resolver != nil {
		cache = "bypass"
	}

	for mi, p := range misses {
		// A ctx done mid-batch sheds the unfinished tail: those positions
		// fail closed immediately instead of evaluating against a dead
		// caller.
		if err := ctx.Err(); err != nil {
			res := ctxResult(e.name, err)
			for _, q := range misses[mi:] {
				out[q] = res
			}
			return
		}
		req := reqs[p]
		ectx := ctx
		var ev *trace.Span
		if sp != nil && single {
			ectx, ev = trace.StartSpan(ctx, "pdp.eval")
		}
		var path evalPath
		out[p], path = e.evaluate(ectx, snap, req, at, resolver)
		e.traceDecision(ev, snap.epoch, out[p], cache, path.candidates)
		ev.End()

		var hash uint64
		if cached {
			hash = req.CacheKeyHash()
		} else {
			hash = policy.HashString(req.ResourceID())
		}
		e.stats.stripe(hash).recordEvaluation(out[p], path)
		if cached && cacheable(out[p]) {
			e.cache.Put(req.CacheKey(), hash, req.ResourceID(), out[p], at, gen)
		}
	}
}
