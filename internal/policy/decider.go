package policy

import (
	"context"
	"time"
)

// Decider is the one decision call every decision provider offers — a
// single engine, a replica ensemble, a sharded router, the last-known-good
// cache and a remote PDP client alike — and every enforcement point
// consumes.
//
// DecideScatterAt evaluates reqs[p] for every p in positions (nil means
// every request) and writes each result to out[p]; other positions of out
// are left untouched. Callers own out, so stacked providers (router →
// ensemble → replica → engine) share one result buffer instead of
// allocating and copying one per layer. ctx bounds the call: a context done
// before or during it yields Indeterminate carrying the cause.
//
// A zero at asks for the provider's own clock: the outermost provider with
// a clock resolves it, so a caller without a time of its own (a serving
// handler, a chaos probe) evaluates at the serving provider's clock. A
// non-nil resolver replaces the provider's attribute resolver for every
// position and bypasses decision caches (multi-domain deployments thread
// cross-domain attribute retrieval through it); nil keeps the provider's.
// A remote PDP resolves attributes itself, so a client ignores it.
type Decider interface {
	DecideScatterAt(ctx context.Context, reqs []*Request, positions []int, at time.Time, resolver Resolver, out []Result)
}

// Decide asks d for one decision at `at` (zero: d's clock). The request and
// result cells escape through the interface call, so they share one
// allocation.
func Decide(ctx context.Context, d Decider, req *Request, at time.Time) Result {
	var one struct {
		req [1]*Request
		out [1]Result
	}
	one.req[0] = req
	d.DecideScatterAt(ctx, one.req[:], nil, at, nil, one.out[:])
	return one.out[0]
}

// DecideBatch asks d for every request in one call at `at` (zero: d's
// clock); result i answers request i. An empty batch returns nil.
func DecideBatch(ctx context.Context, d Decider, reqs []*Request, at time.Time) []Result {
	if len(reqs) == 0 {
		return nil
	}
	out := make([]Result, len(reqs))
	d.DecideScatterAt(ctx, reqs, nil, at, nil, out)
	return out
}
