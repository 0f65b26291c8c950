// Package cluster scales the Policy Decision Point horizontally: the
// paper's Section 3 scalability challenge met by a fleet of engines rather
// than one. A consistent-hash ring partitions the policy base across N
// shards by the resource keys their targets constrain; a Router is a
// policy.Decider like a single pdp.Engine, so enforcement points (pep,
// rest, capability) work against a cluster unchanged. Each shard is a
// replicated group built from the ha package's failover or quorum
// ensembles, so a shard survives replica crashes.
//
// One owner function answers every ownership question: it hashes the key
// and binary-searches the ring points derived from the router's shard
// list, so request routing, repartitioning, ApplyUpdate's owner sets and
// Router.Owner cannot disagree, and no per-key routing table is kept.
//
// Routing preserves single-engine semantics: a shard's base holds, in
// original order, every root child whose resource-id target maps to a key
// the shard owns, plus every child that does not constrain resource-id
// (the catch-alls, replicated to all shards). For any request the owning
// shard therefore sees exactly the children a single engine's evaluation
// could match, and returns the identical decision.
//
// Every decision takes one per-shard dispatch: the zero-copy scatter path
// (one shared result buffer from router to engine), with the shard's
// breaker, latency histogram, trace span and the ensemble's failover walk
// applied in one place. A single decision is a one-position scatter; a larger
// selection is grouped by owning shard and evaluates each group in one engine
// pass, amortising lock, cache-sweep and snapshot-load overhead. The groups
// are dispatched one after another on the caller's goroutine.
//
// AddShard and RemoveShard rebalance live: consistent hashing moves only
// ~1/N of the key space, and only shards whose ownership changed have
// their policy base reinstalled (which also invalidates their decision
// caches — stale entries cannot outlive a rebalance).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ha"
	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Cluster errors, matched with errors.Is.
var (
	// ErrLastShard reports a RemoveShard that would empty the cluster.
	ErrLastShard = errors.New("cluster: cannot remove the last shard")
	// ErrUnknownShard reports a shard name not in the cluster.
	ErrUnknownShard = errors.New("cluster: unknown shard")
)

// Config parameterises a Router. The ring spreads each shard over 128
// virtual nodes.
type Config struct {
	// Shards is the initial shard count; at least 1.
	Shards int
	// Replicas is the number of engine replicas per shard group; 1 when
	// zero or negative.
	Replicas int
	// Strategy combines a shard group's replicas; ha.Failover when zero.
	Strategy ha.Strategy
	// EngineOptions configure every replica engine (resolver, decision
	// cache, clock).
	EngineOptions []pdp.Option
	// Clock is the router clock, for decisions asked with a zero time;
	// time.Now when nil.
	Clock func() time.Time
	// Resilience, when non-nil, arms a circuit breaker per shard group (an
	// open breaker fails fast with resilience.ErrOpen), for single and
	// batch decisions alike. StaleGrace is not the router's concern: a
	// resilience.FrontCache placed over the router serves last-known-good.
	Resilience *resilience.Policy
}

// Stats aggregates router activity.
type Stats struct {
	// Requests counts single decisions routed: scatter calls selecting one
	// position, a one-request batch included.
	Requests int64
	// Batches and BatchRequests count scatter calls selecting more than
	// one position and the positions they selected.
	Batches, BatchRequests int64
	// Rebalances counts AddShard/RemoveShard membership changes.
	Rebalances int64
	// ChildrenMoved counts policy-base children whose owning shard changed
	// across rebalances, the rebalancing cost measure.
	ChildrenMoved int64
	// Updates counts incremental policy deltas applied via ApplyUpdate.
	Updates int64
	// UpdateShardsTouched sums the shard groups each delta reached; the
	// remaining shards kept their policy bases and decision caches.
	UpdateShardsTouched int64
	// DegradedRejects counts requests failed fast by an open shard
	// breaker (resilience.ErrOpen).
	DegradedRejects int64
}

// counters is the lock-free mutable form of Stats: decisions increment it
// under the router's read lock, so the fields must be atomic.
type counters struct {
	requests, batches, batchRequests, rebalances, childrenMoved atomic.Int64
	updates, updateShardsTouched, degradedRejects               atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Requests:            c.requests.Load(),
		Batches:             c.batches.Load(),
		BatchRequests:       c.batchRequests.Load(),
		Rebalances:          c.rebalances.Load(),
		ChildrenMoved:       c.childrenMoved.Load(),
		Updates:             c.updates.Load(),
		UpdateShardsTouched: c.updateShardsTouched.Load(),
		DegradedRejects:     c.degradedRejects.Load(),
	}
}

// shard is one replicated partition of the policy base.
type shard struct {
	name     string
	engines  []*pdp.Engine
	replicas []*ha.Failable
	group    *ha.Ensemble
	// lat is the shard's decision-latency histogram, observed only while
	// the router's metrics are registered (see Router.metricsOn).
	lat telemetry.Histogram
	// breaker guards the shard group's availability when Config.Resilience
	// is set; nil otherwise.
	breaker *resilience.Breaker
}

// Router is a horizontally sharded Policy Decision Point, a
// policy.Decider: enforcement points, pdp.Handler/BatchHandler and a
// resilience.FrontCache all take it as they take a single engine.
type Router struct {
	name string
	cfg  Config
	now  func() time.Time

	mu sync.RWMutex
	// shards holds the shard groups in creation order; every walk over
	// the membership and every routed position refers to this one list.
	shards []*shard
	// points is the consistent-hash ring derived from shards, rebuilt by
	// setShardsLocked on every membership change; ringOwner over it is
	// the router's one owner function.
	points []point
	nextID int
	root   policy.Evaluable
	stats  counters
	// metricsOn gates per-decision latency observation: zero clock reads
	// on the decision path until RegisterMetrics flips it.
	metricsOn atomic.Bool
	// res is the breaker policy armed by Config.Resilience;
	// nil when resilience is off.
	res *resilience.Policy
}

// New builds a cluster of cfg.Shards empty shard groups.
func New(name string, cfg Config) (*Router, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster %s: need at least 1 shard, got %d", name, cfg.Shards)
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Strategy == 0 {
		cfg.Strategy = ha.Failover
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	r := &Router{
		name: name,
		cfg:  cfg,
		now:  cfg.Clock,
	}
	if cfg.Resilience != nil {
		// Copy the policy so breaker defaults (and the clock fallback to
		// the router clock, which keeps virtual-clock tests honest) never
		// mutate the caller's struct.
		res := *cfg.Resilience
		if res.Breaker.Clock == nil {
			res.Breaker.Clock = cfg.Clock
		}
		r.res = &res
	}
	for i := 0; i < cfg.Shards; i++ {
		r.addShardLocked()
	}
	return r, nil
}

// addShardLocked creates the next shard group and joins it to the
// membership and the ring.
// Callers hold r.mu (or own r exclusively during construction).
func (r *Router) addShardLocked() *shard {
	name := fmt.Sprintf("%s/shard-%d", r.name, r.nextID)
	r.nextID++
	s := &shard{name: name}
	for j := 0; j < r.cfg.Replicas; j++ {
		engine := pdp.New(fmt.Sprintf("%s/r%d", name, j), r.cfg.EngineOptions...)
		s.engines = append(s.engines, engine)
		s.replicas = append(s.replicas, ha.NewFailable(fmt.Sprintf("%s/r%d", name, j), engine))
	}
	s.group = ha.NewEnsemble(name, r.cfg.Strategy, s.replicas...)
	if r.res != nil {
		s.breaker = resilience.NewBreaker(name, r.res.Breaker)
	}
	r.setShardsLocked(append(r.shards, s))
	return s
}

// setShardsLocked replaces the membership and rebuilds the ring from it,
// so the ring always describes exactly r.shards. Callers hold r.mu.
func (r *Router) setShardsLocked(shards []*shard) {
	r.shards = shards
	r.points = ringPoints(shards)
}

// Name identifies the cluster in diagnostics.
func (r *Router) Name() string { return r.name }

// Stats returns a snapshot of router counters.
func (r *Router) Stats() Stats {
	return r.stats.snapshot()
}

// Shards returns the current shard names in creation order.
func (r *Router) Shards() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.name
	}
	return out
}

// Replicas exposes a shard group's failure-injection handles, so
// experiments and tests can crash and revive replicas (ha.Failable).
func (r *Router) Replicas(shardName string) ([]*ha.Failable, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i := r.indexLocked(shardName)
	if i < 0 {
		return nil, fmt.Errorf("cluster %s: %q: %w", r.name, shardName, ErrUnknownShard)
	}
	return append([]*ha.Failable(nil), r.shards[i].replicas...), nil
}

// GroupStats returns each shard group's ensemble counters, keyed by shard
// name.
func (r *Router) GroupStats() map[string]ha.Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]ha.Stats, len(r.shards))
	for _, s := range r.shards {
		out[s.name] = s.group.Stats()
	}
	return out
}

// ShardLoads returns per-shard decision counts (replica queries summed
// over the group), in shard creation order — the balance measure.
func (r *Router) ShardLoads() []int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]int64, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.queries()
	}
	return out
}

// queries sums the shard's replica queries: its share of the load.
func (s *shard) queries() int64 {
	var n int64
	for _, rep := range s.replicas {
		n += rep.Queries()
	}
	return n
}

// Owner reports which shard currently owns a resource key: the shard
// every decision on it is routed to.
func (r *Router) Owner(resourceID string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.shards[ringOwner(r.points, resourceID)].name
}

// SetRoot validates the policy base, partitions it across the shards and
// installs each partition on every replica of its group.
func (r *Router) SetRoot(root policy.Evaluable) error {
	if root == nil {
		return fmt.Errorf("cluster %s: nil root", r.name)
	}
	if err := root.Validate(); err != nil {
		return fmt.Errorf("cluster %s: %w", r.name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.root = root
	return r.repartitionLocked(true)
}

// Root returns the installed (unpartitioned) policy base, or nil.
func (r *Router) Root() policy.Evaluable {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.root
}

// AddShard grows the cluster by one replicated shard group, rebalancing
// policy ownership. It returns the new shard's name. If installing the
// rebalanced bases fails, the membership change is rolled back so the
// half-joined empty shard cannot stay in the ring fail-closing its slice
// of the key space.
func (r *Router) AddShard() (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.addShardLocked()
	if err := r.repartitionLocked(false); err != nil {
		r.setShardsLocked(r.shards[:len(r.shards)-1])
		// Reinstall any shard the failed repartition already shrank;
		// shards whose installed children still match skip the install.
		if rerr := r.repartitionLocked(false); rerr != nil {
			return "", fmt.Errorf("cluster %s: rollback after failed add: %w", r.name, errors.Join(err, rerr))
		}
		return "", err
	}
	r.stats.rebalances.Add(1)
	return s.name, nil
}

// RemoveShard shrinks the cluster, folding the shard's key range into its
// ring successors. The last shard cannot be removed.
func (r *Router) RemoveShard(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.indexLocked(name)
	if i < 0 {
		return fmt.Errorf("cluster %s: %q: %w", r.name, name, ErrUnknownShard)
	}
	if len(r.shards) == 1 {
		return fmt.Errorf("cluster %s: %w", r.name, ErrLastShard)
	}
	r.setShardsLocked(slices.Delete(r.shards, i, i+1))
	r.stats.rebalances.Add(1)
	return r.repartitionLocked(false)
}

// repartitionLocked recomputes every shard's slice of the policy base and
// reinstalls the bases that changed. force reinstalls everywhere (a new
// root). Reinstalling flushes the affected engines' decision caches, so a
// rebalance invalidates exactly the cached decisions whose ownership
// moved. Callers hold r.mu.
func (r *Router) repartitionLocked(force bool) error {
	if r.root == nil {
		return nil
	}
	set, partitionable := r.root.(*policy.PolicySet)
	parts := make([][]policy.Evaluable, len(r.shards))
	if partitionable {
		// One pass over the root children assigns each child to the
		// shards serving it. A child with an exact resource-id target
		// goes to the owners of its keys; a catch-all child (no equality
		// constraint) goes to every shard. Appending in child order keeps
		// each shard's subset in root order, preserving order-dependent
		// combining semantics.
		for _, ch := range set.Children {
			keys, catchAll := policy.ResourceKeys(ch)
			if catchAll {
				for o := range parts {
					parts[o] = append(parts[o], ch)
				}
				continue
			}
			for _, key := range keys {
				o := ringOwner(r.points, key)
				// Keys of one child sharing an owner add the child once;
				// the child is the last one appended while it is current.
				if n := len(parts[o]); n == 0 || parts[o][n-1] != ch {
					parts[o] = append(parts[o], ch)
				}
			}
		}
	}
	for o, s := range r.shards {
		base := r.root
		if partitionable {
			base = subsetPolicySet(set, parts[o])
		}
		installed := s.engines[0].Root() != nil
		old := s.installedChildren()
		if !force && installed && slices.Equal(parts[o], old) {
			continue
		}
		if !force {
			// Children arriving at this shard (including a brand-new
			// shard's first slice) moved here from elsewhere.
			r.stats.childrenMoved.Add(int64(arrivals(old, parts[o])))
		}
		for _, engine := range s.engines {
			if err := engine.SetRoot(base); err != nil {
				return fmt.Errorf("cluster %s: install %s: %w", r.name, s.name, err)
			}
		}
	}
	return nil
}

// installedChildren lists the root children the shard serves, read from
// its first engine (every replica installs the same base): nil before the
// first install and under an unpartitionable root.
func (s *shard) installedChildren() []policy.Evaluable {
	if set, ok := s.engines[0].Root().(*policy.PolicySet); ok {
		return set.Children
	}
	return nil
}

// subsetPolicySet rebuilds the root set over the selected children,
// preserving identity, combining algorithm and obligations so combining
// semantics (including order dependence) match the full base.
func subsetPolicySet(set *policy.PolicySet, children []policy.Evaluable) *policy.PolicySet {
	return &policy.PolicySet{
		ID:          set.ID,
		Version:     set.Version,
		Issuer:      set.Issuer,
		Target:      set.Target,
		Combining:   set.Combining,
		Children:    children,
		Obligations: set.Obligations,
	}
}

// arrivals counts the children of next absent from prev: those whose
// ownership arrived at this shard in a rebalance.
func arrivals(prev, next []policy.Evaluable) int {
	had := make(map[policy.Evaluable]struct{}, len(prev))
	for _, ch := range prev {
		had[ch] = struct{}{}
	}
	n := 0
	for _, ch := range next {
		if _, ok := had[ch]; !ok {
			n++
		}
	}
	return n
}

// Decide routes the request at the router clock. bench/ladder.go calls
// it.
func (r *Router) Decide(ctx context.Context, req *policy.Request) policy.Result {
	return policy.Decide(ctx, r, req, time.Time{})
}

// DecideBatch decides many requests at the router clock; result i answers
// request i. bench/ladder.go calls it.
func (r *Router) DecideBatch(ctx context.Context, reqs []*policy.Request) []policy.Result {
	return policy.DecideBatch(ctx, r, reqs, time.Time{})
}

// DecideScatterAt implements policy.Decider: every selected request is
// routed to the shard owning its resource key and decided there, bounded
// by ctx; a zero at decides at the router clock. One selected position is
// a single decision, dispatched straight to its shard. More are grouped
// by owning shard and each group is evaluated in one pass on its shard
// group, amortising lock, cache-sweep and snapshot-load overhead in the
// engines. The read lock is held across evaluation so a concurrent
// rebalance can never route a request to a shard that no longer serves
// its policies.
//
// The groups are dispatched one after another on the caller's goroutine,
// in shard creation order. ctx bounds the whole scatter: a group in flight
// when it ends aborts inside the engine (or inside a stalled replica's
// injected latency), the groups after it are never started, and every
// position that did not finish returns Indeterminate with the cause. One
// slow shard therefore bounds the batch's latency at the caller's deadline
// instead of the shard's worst case, though the groups queued behind it
// fail closed with it.
func (r *Router) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, at time.Time, resolver policy.Resolver, out []policy.Result) {
	n := len(reqs)
	if positions != nil {
		n = len(positions)
	}
	if n == 0 {
		return
	}
	if at.IsZero() {
		at = r.now()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n == 1 {
		r.stats.requests.Add(1)
		indexes := onePosition
		if positions != nil {
			indexes = positions
		}
		p := indexes[0]
		if err := ctx.Err(); err != nil {
			out[p] = r.ctxDone(err)
			return
		}
		o := ringOwner(r.points, reqs[p].ResourceID())
		r.dispatchLocked(ctx, r.shards[o], reqs, indexes, at, resolver, out)
		return
	}
	r.scatterLocked(ctx, reqs, positions, n, at, resolver, out)
}

// scatterLocked decides a selection of n > 1 positions: grouped by owning
// shard, one dispatch per group. Callers hold r.mu read-locked.
func (r *Router) scatterLocked(ctx context.Context, reqs []*policy.Request, positions []int, n int, at time.Time, resolver policy.Resolver, out []policy.Result) {
	r.stats.batches.Add(1)
	r.stats.batchRequests.Add(int64(n))
	if err := ctx.Err(); err != nil {
		res := r.ctxDone(err)
		policy.EachPosition(len(reqs), positions, func(p int) { out[p] = res })
		return
	}
	// Group request positions by the owner's position in r.shards: a
	// slice walk, not a map, on the hot path.
	groups := make([][]int, len(r.shards))
	live := 0
	policy.EachPosition(len(reqs), positions, func(p int) {
		o := ringOwner(r.points, reqs[p].ResourceID())
		if groups[o] == nil {
			live++
		}
		groups[o] = append(groups[o], p)
	})

	// Traced batches get a scatter span plus one span per shard group; the
	// group spans record shed positions when the deadline expires mid-
	// scatter — the trace shows which shards never ran and why.
	if trace.FromContext(ctx) != nil {
		var scatter *trace.Span
		ctx, scatter = trace.StartSpan(ctx, "cluster.scatter")
		scatter.SetInt("batch.n", int64(n))
		scatter.SetInt("cluster.groups", int64(live))
		defer scatter.End()
	}

	for o, indexes := range groups {
		if indexes != nil {
			r.dispatchLocked(ctx, r.shards[o], reqs, indexes, at, resolver, out)
		}
	}
}

// onePosition selects the only request of a single decision's scatter.
// Dispatch only reads positions, so every single decision shares it.
var onePosition = []int{0}

// ctxDone renders a caller context expiring at the router: the fail-closed
// Indeterminate every layer of the pipeline surfaces for out-of-time work.
func (r *Router) ctxDone(err error) policy.Result {
	return policy.Result{Decision: policy.DecisionIndeterminate,
		Err: fmt.Errorf("cluster %s: context done before decision: %w", r.name, err)}
}

// indexLocked scans for a shard by name: its position in r.shards, or -1.
// Callers hold r.mu.
func (r *Router) indexLocked(name string) int {
	return slices.IndexFunc(r.shards, func(s *shard) bool { return s.name == name })
}

// dispatchLocked decides one shard group's positions of reqs into out: the
// one per-shard dispatch, for single decisions and batch groups alike. The
// scatter threads the shared out buffer through ensemble, replica and
// engine: no per-group request slice, no per-layer result allocation, no
// copy-back. A group whose ctx expired before dispatch, or whose breaker is
// open, fails its positions closed here; a traced group gets a
// cluster.shard span recording which shard ran it and why it shed.
// Callers hold r.mu read-locked.
func (r *Router) dispatchLocked(ctx context.Context, s *shard, reqs []*policy.Request, indexes []int, at time.Time, resolver policy.Resolver, out []policy.Result) {
	gctx := ctx
	var gsp *trace.Span
	if trace.FromContext(ctx) != nil {
		gctx, gsp = trace.StartSpan(ctx, "cluster.shard")
		gsp.SetAttr("cluster.shard", s.name)
		gsp.SetInt("batch.n", int64(len(indexes)))
		defer gsp.End()
	}
	shed := func(res policy.Result, attr string) {
		for _, p := range indexes {
			out[p] = res
		}
		gsp.SetInt(attr, int64(len(indexes)))
		gsp.Keep()
	}
	if err := ctx.Err(); err != nil {
		shed(r.ctxDone(err), "cluster.shed")
		return
	}
	if s.breaker != nil && !s.breaker.Allow() {
		shed(r.failFast(s, len(indexes)), "cluster.breaker_open")
		return
	}
	if r.metricsOn.Load() {
		start := time.Now()
		s.group.DecideScatterAt(gctx, reqs, indexes, at, resolver, out)
		s.lat.Observe(time.Since(start))
	} else {
		s.group.DecideScatterAt(gctx, reqs, indexes, at, resolver, out)
	}
	r.observeGroupLocked(s, indexes, out)
}
