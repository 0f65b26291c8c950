package ha

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
)

// selected counts the request positions a scatter call selects.
func selected(reqs []*policy.Request, positions []int) int {
	if positions == nil {
		return len(reqs)
	}
	return len(positions)
}

// fill answers every selected position with res.
func fill(reqs []*policy.Request, positions []int, out []policy.Result, res policy.Result) {
	policy.EachPosition(len(reqs), positions, func(p int) { out[p] = res })
}

// probe is the position checked to classify a replica's answer: replicas
// are all-or-nothing, so one position reveals availability.
func probe(positions []int) int {
	if positions == nil {
		return 0
	}
	return positions[0]
}

func unavailable(res policy.Result) bool {
	return res.Decision == policy.DecisionIndeterminate && errors.Is(res.Err, ErrUnavailable)
}

// DecideScatterAt implements policy.Decider: a crashed replica yields an
// unavailable Indeterminate at every position; a stalled replica blocks
// once per call (however many positions it carries) for the stall or the
// caller's deadline; a live one delegates to the wrapped provider.
func (f *Failable) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, at time.Time, resolver policy.Resolver, out []policy.Result) {
	f.queries.Add(int64(selected(reqs, positions)))
	if f.down.Load() {
		fill(reqs, positions, out, policy.Result{
			Decision: policy.DecisionIndeterminate,
			Err:      fmt.Errorf("ha: replica %s: %w", f.name, ErrUnavailable),
		})
		return
	}
	if err := f.stallFor(ctx); err != nil {
		fill(reqs, positions, out, policy.Result{
			Decision: policy.DecisionIndeterminate,
			Err:      fmt.Errorf("ha: replica %s: context done before decision: %w", f.name, err),
		})
		return
	}
	f.inner.DecideScatterAt(ctx, reqs, positions, at, resolver, out)
}

// DecideAt decides one request: a one-position scatter. bench/ladder.go
// calls it.
func (e *Ensemble) DecideAt(ctx context.Context, req *policy.Request, at time.Time) policy.Result {
	return policy.Decide(ctx, e, req, at)
}

// DecideBatchAt answers many requests in one call; result i answers
// request i. bench/ladder.go calls it.
func (e *Ensemble) DecideBatchAt(ctx context.Context, reqs []*policy.Request, at time.Time) []policy.Result {
	return policy.DecideBatch(ctx, e, reqs, at)
}

// DecideScatterAt implements policy.Decider over the ensemble. Failover
// sends the selection to the first live replica (a replica is
// all-or-nothing: crashed replicas fail every request, live ones answer
// every request); quorum sends the selection to all replicas and
// majority-votes per position. A ctx done between replicas stops the walk
// and fails the selection closed.
func (e *Ensemble) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, at time.Time, resolver policy.Resolver, out []policy.Result) {
	n := selected(reqs, positions)
	if n == 0 {
		return
	}
	e.stats.requests.Add(int64(n))
	if e.strategy == Quorum {
		e.quorumScatter(ctx, reqs, positions, n, at, resolver, out)
		return
	}
	e.failoverScatter(ctx, reqs, positions, n, at, resolver, out)
}

// ctxDone renders a caller context expiring inside the ensemble.
func (e *Ensemble) ctxDone(err error) policy.Result {
	return policy.Result{
		Decision: policy.DecisionIndeterminate,
		Err:      fmt.Errorf("ha: ensemble %s: context done before decision: %w", e.name, err),
	}
}

// failoverScatter walks the failover order on the caller's goroutine,
// sending the selection to one replica at a time until one answers it. An
// answer past dead replicas counts a failover, and an exhausted chain
// counts the selection unavailable and fails it closed. Both annotate the
// caller's span and force-retain its trace — a decision that survived, or
// died of, dead replicas is worth reading whatever the sampling rate. The
// span lookup happens only on these degraded paths: a failover-free
// decision pays nothing here.
func (e *Ensemble) failoverScatter(ctx context.Context, reqs []*policy.Request, positions []int, n int, at time.Time, resolver policy.Resolver, out []policy.Result) {
	skipped := 0
	for _, idx := range *e.order.Load() {
		if err := ctx.Err(); err != nil {
			fill(reqs, positions, out, e.ctxDone(err))
			return
		}
		r := e.replicas[idx]
		r.DecideScatterAt(ctx, reqs, positions, at, resolver, out)
		if !unavailable(out[probe(positions)]) {
			if skipped > 0 {
				e.stats.failovers.Add(int64(n))
				if sp := trace.FromContext(ctx); sp != nil {
					sp.SetInt("ha.failover_skipped", int64(skipped))
					sp.SetAttr("ha.replica", r.Name())
					sp.Keep()
				}
			}
			return
		}
		skipped++
	}
	e.stats.unavailable.Add(int64(n))
	fill(reqs, positions, out, policy.Result{
		Decision: policy.DecisionIndeterminate,
		Err:      fmt.Errorf("ha: ensemble %s: %w", e.name, ErrAllReplicasDown),
	})
	if sp := trace.FromContext(ctx); sp != nil {
		sp.SetAttr("ha.error", ErrAllReplicasDown.Error())
		sp.Keep()
	}
}

func (e *Ensemble) quorumScatter(ctx context.Context, reqs []*policy.Request, positions []int, n int, at time.Time, resolver policy.Resolver, out []policy.Result) {
	// Compact the selected requests so per-replica vote buffers are sized
	// to the selection, not the caller's whole batch.
	sel := reqs
	if positions != nil {
		sel = make([]*policy.Request, n)
		for k, p := range positions {
			sel[k] = reqs[p]
		}
	}
	votes := make([][]policy.Result, 0, len(e.replicas))
	for _, r := range e.replicas {
		if err := ctx.Err(); err != nil {
			fill(reqs, positions, out, e.ctxDone(err))
			return
		}
		rep := make([]policy.Result, n)
		r.DecideScatterAt(ctx, sel, nil, at, resolver, rep)
		votes = append(votes, rep)
	}
	need := len(e.replicas)/2 + 1
	var disagreements, unavail int64
	// splitAnswered and splitVotes describe the first split vote, for the
	// trace.
	var splitAnswered, splitVotes int
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
			if disagreements == 0 {
				splitAnswered, splitVotes = answered, len(tally)
			}
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
				e.name, answered, len(e.replicas), need, ErrNoQuorum),
		}
	}
	e.stats.disagreements.Add(disagreements)
	e.stats.unavailable.Add(unavail)
	// A split or failed vote is always worth a trace: annotate and retain.
	if disagreements+unavail == 0 {
		return
	}
	if sp := trace.FromContext(ctx); sp != nil {
		if disagreements > 0 {
			sp.SetInt("ha.quorum_answered", int64(splitAnswered))
			sp.SetInt("ha.quorum_votes", int64(splitVotes))
		}
		if unavail > 0 {
			sp.SetAttr("ha.error", ErrNoQuorum.Error())
		}
		sp.Keep()
	}
}
