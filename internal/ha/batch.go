package ha

import (
	"context"
	"fmt"
	"time"

	"repro/internal/policy"
)

// ScatterProvider is the zero-copy batch extension: evaluate reqs[p] for
// every p in positions (nil means every request) and write each result to
// out[p]. Callers own out, so stacked layers (cluster router → ensemble →
// replica → engine) share one result buffer instead of allocating and
// copying one per layer. pdp.Engine implements it.
type ScatterProvider interface {
	DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, at time.Time, out []policy.Result)
}

// eachPosition visits every selected request position.
func eachPosition(n int, positions []int, visit func(p int)) {
	if positions == nil {
		for p := 0; p < n; p++ {
			visit(p)
		}
		return
	}
	for _, p := range positions {
		visit(p)
	}
}

// DecideScatterAt implements ScatterProvider: a crashed replica yields an
// unavailable Indeterminate at every position; a stalled replica blocks
// once per batch (the batch is one call) for the stall or the caller's
// deadline; a live one delegates to the wrapped provider's scatter path
// when it has one and loops otherwise.
func (f *Failable) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, at time.Time, out []policy.Result) {
	n := len(reqs)
	if positions != nil {
		n = len(positions)
	}
	f.queries.Add(int64(n))
	if f.down.Load() {
		eachPosition(len(reqs), positions, func(p int) {
			out[p] = policy.Result{
				Decision: policy.DecisionIndeterminate,
				Err:      fmt.Errorf("ha: replica %s: %w", f.name, ErrUnavailable),
			}
		})
		return
	}
	if err := f.stallFor(ctx); err != nil {
		eachPosition(len(reqs), positions, func(p int) {
			out[p] = policy.Result{
				Decision: policy.DecisionIndeterminate,
				Err:      fmt.Errorf("ha: replica %s: context done before decision: %w", f.name, err),
			}
		})
		return
	}
	if sp, ok := f.inner.(ScatterProvider); ok {
		sp.DecideScatterAt(ctx, reqs, positions, at, out)
		return
	}
	eachPosition(len(reqs), positions, func(p int) {
		out[p] = f.inner.DecideAt(ctx, reqs[p], at)
	})
}

// DecideBatchAt answers many requests in one call; result i answers
// request i. See DecideScatterAt.
func (e *Ensemble) DecideBatchAt(ctx context.Context, reqs []*policy.Request, at time.Time) []policy.Result {
	if len(reqs) == 0 {
		return nil
	}
	out := make([]policy.Result, len(reqs))
	e.DecideScatterAt(ctx, reqs, nil, at, out)
	return out
}

// DecideScatterAt implements ScatterProvider over the ensemble. Failover
// sends the whole batch to the first live replica (a replica is
// all-or-nothing: crashed replicas fail every request, live ones answer
// every request); quorum sends the batch to all replicas and
// majority-votes per position. A ctx done between replicas stops the walk
// and fails the selected positions closed.
func (e *Ensemble) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, at time.Time, out []policy.Result) {
	n := len(reqs)
	if positions != nil {
		n = len(positions)
	}
	if n == 0 {
		return
	}
	e.stats.requests.Add(int64(n))
	switch e.strategy {
	case Quorum:
		e.quorumScatter(ctx, e.replicas, reqs, positions, n, at, out)
	default:
		e.failoverScatter(ctx, e.replicas, *e.order.Load(), reqs, positions, n, at, out)
	}
}

// probe is the position checked to classify a replica's batch answer:
// replicas are all-or-nothing, so one position reveals availability.
func probe(positions []int) int {
	if positions == nil {
		return 0
	}
	return positions[0]
}

func (e *Ensemble) failoverScatter(ctx context.Context, replicas []*Failable, order []int, reqs []*policy.Request, positions []int, n int, at time.Time, out []policy.Result) {
	skipped := false
	for _, idx := range order {
		if err := ctx.Err(); err != nil {
			res := e.ctxDone(err)
			eachPosition(len(reqs), positions, func(p int) { out[p] = res })
			return
		}
		replicas[idx].DecideScatterAt(ctx, reqs, positions, at, out)
		e.stats.replicaQueries.Add(int64(n))
		if unavailable(out[probe(positions)]) {
			skipped = true
			continue
		}
		if skipped {
			e.stats.failovers.Add(int64(n))
		}
		return
	}
	e.stats.unavailable.Add(int64(n))
	eachPosition(len(reqs), positions, func(p int) {
		out[p] = policy.Result{
			Decision: policy.DecisionIndeterminate,
			Err:      fmt.Errorf("ha: ensemble %s: %w", e.name, ErrAllReplicasDown),
		}
	})
}

func (e *Ensemble) quorumScatter(ctx context.Context, replicas []*Failable, reqs []*policy.Request, positions []int, n int, at time.Time, out []policy.Result) {
	// Compact the selected requests so per-replica vote buffers are sized
	// to the selection, not the caller's whole batch.
	sel := reqs
	if positions != nil {
		sel = make([]*policy.Request, n)
		for k, p := range positions {
			sel[k] = reqs[p]
		}
	}
	votes := make([][]policy.Result, 0, len(replicas))
	for _, r := range replicas {
		if err := ctx.Err(); err != nil {
			res := e.ctxDone(err)
			eachPosition(len(reqs), positions, func(p int) { out[p] = res })
			return
		}
		rep := make([]policy.Result, n)
		r.DecideScatterAt(ctx, sel, nil, at, rep)
		votes = append(votes, rep)
	}
	need := len(replicas)/2 + 1
	var disagreements, unavail int64
	for k := 0; k < n; k++ {
		p := k
		if positions != nil {
			p = positions[k]
		}
		tally := make(map[policy.Decision]int, 4)
		results := make(map[policy.Decision]policy.Result, 4)
		answered := 0
		for _, rep := range votes {
			res := rep[k]
			if unavailable(res) {
				continue
			}
			answered++
			tally[res.Decision]++
			if _, ok := results[res.Decision]; !ok {
				results[res.Decision] = res
			}
		}
		var winner policy.Decision
		best := 0
		for d, count := range tally {
			if count > best {
				best, winner = count, d
			}
		}
		if answered > 0 && len(tally) > 1 {
			disagreements++
		}
		if best >= need {
			out[p] = results[winner]
			continue
		}
		unavail++
		out[p] = policy.Result{
			Decision: policy.DecisionIndeterminate,
			Err: fmt.Errorf("ha: ensemble %s: %d/%d answered, need %d agreeing: %w",
				e.name, answered, len(replicas), need, ErrNoQuorum),
		}
	}
	e.stats.replicaQueries.Add(int64(n) * int64(len(replicas)))
	e.stats.disagreements.Add(disagreements)
	e.stats.unavailable.Add(unavail)
}
