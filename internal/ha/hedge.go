package ha

import (
	"context"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
)

// hedgedScatter is the failover dispatch with a hedge: the selection goes
// to the preferred replica, and if that replica has not answered within
// after, a hedge copy walks the rest of the chain — the first settled
// answer wins. A stalled replica (wedged disk, GC pause) then costs ~after
// extra latency instead of the caller's whole deadline, at the price of
// duplicated work on the slow tail only.
//
// Both walks write private buffers and the kept one is copied into out, and
// each traces under its own ha.walk span, so the loser can finish (and be
// discarded) without racing the caller's result slice or span. The walks record nothing; the walk returned is the one
// kept, with a dead preferred replica counted among its skips, so
// settleFailover counts each request once.
func (e *Ensemble) hedgedScatter(ctx context.Context, order []int, reqs []*policy.Request, positions []int, n int, at time.Time, resolver policy.Resolver, out []policy.Result, after time.Duration) walked {
	walk := func(name string, chain []int, buf []policy.Result) <-chan walked {
		done := make(chan walked, 1)
		go func() {
			// The walks run at once and a span belongs to one goroutine, so
			// each walk annotates its own span, never the caller's.
			wctx, sp := trace.StartSpan(ctx, "ha.walk")
			sp.SetAttr("ha.walk", name)
			w := e.failoverScatter(wctx, chain, reqs, positions, n, at, resolver, buf)
			sp.End()
			done <- w
		}()
		return done
	}
	keep := func(w walked, buf []policy.Result) walked {
		policy.EachPosition(len(reqs), positions, func(p int) { out[p] = buf[p] })
		return w
	}

	primary := make([]policy.Result, len(reqs))
	primaryDone := walk("primary", order[:1], primary)
	timer := time.NewTimer(after)
	defer timer.Stop()
	select {
	case w := <-primaryDone:
		// Fast primary: the common case pays one goroutine and one timer.
		if w.settled() {
			return keep(w, primary)
		}
		// An unavailable primary is not hedged — it already failed fast,
		// so the ordinary failover walk over the rest follows it.
		rest := e.failoverScatter(ctx, order[1:], reqs, positions, n, at, resolver, out)
		rest.skipped += w.skipped
		return rest
	case <-timer.C:
	}

	// Primary is slow: hedge on the rest of the chain.
	e.stats.hedges.Add(int64(n))
	hedge := make([]policy.Result, len(reqs))
	hedgeDone := walk("hedge", order[1:], hedge)
	select {
	case w := <-primaryDone:
		if w.settled() {
			return keep(w, primary)
		}
		// The slow primary came back down. The hedge IS the failover walk
		// the unhedged path would now perform — wait for it rather than
		// abandon a failover that may still succeed.
		h := <-hedgeDone
		h.skipped += w.skipped
		if h.settled() {
			e.stats.hedgeWins.Add(int64(n))
		}
		return keep(h, hedge)
	case h := <-hedgeDone:
		if h.settled() {
			e.stats.hedgeWins.Add(int64(n))
			return keep(h, hedge)
		}
		// The hedge found nobody; the primary is still the only hope.
		return keep(<-primaryDone, primary)
	}
}
