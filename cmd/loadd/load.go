package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/workload"
)

// sample is one paced decision.
type sample struct {
	due, sent, done time.Time
	decision        policy.Decision
	degraded        bool
}

// failed reports a decision the daemon did not answer conclusively.
func (s sample) failed() bool { return s.decision == policy.DecisionIndeterminate }

// pace sends the load shape to target until stop closes and returns one
// sample per decision sent. Arrival instants follow the shape's Poisson
// process from the moment pace starts; each of the senders claims the next
// arrival, sleeps to it and decides it under decisionBudget counted from
// the due instant, so a sender that falls behind sends late — the
// lateness shows in sent − due — instead of queueing. Decisions run under
// ctx, not stop: stopping ends the arrivals, it does not cancel
// decisions in flight.
func pace(ctx context.Context, target policy.Decider, stop <-chan struct{}) []sample {
	gen := workload.NewGenerator(loadShape)
	start := time.Now()
	var (
		mu sync.Mutex
		at time.Duration
	)
	next := func() (time.Time, *policy.Request) {
		mu.Lock()
		defer mu.Unlock()
		at += gen.NextInterarrival()
		return start.Add(at), gen.WarmRequest()
	}
	perSender := make([][]sample, senders)
	var wg sync.WaitGroup
	for i := range perSender {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				due, req := next()
				sleepUntil(due)
				select {
				case <-stop:
					return
				default:
				}
				dctx, cancel := context.WithDeadline(ctx, due.Add(decisionBudget))
				s := sample{due: due, sent: time.Now()}
				res := policy.Decide(dctx, target, req, time.Time{})
				cancel()
				s.done, s.decision, s.degraded = time.Now(), res.Decision, res.Degraded
				perSender[i] = append(perSender[i], s)
			}
		}(i)
	}
	wg.Wait()
	var all []sample
	for _, ss := range perSender {
		all = append(all, ss...)
	}
	return all
}

// sleepUntil blocks until t. It sleeps in the kernel, not on a runtime
// timer: runtime timers fire from epoll_wait, whose millisecond timeout
// granularity runs a pacer 0.5–1 ms late at these rates.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		// A signal cut the sleep short; ts now holds the remainder.
	}
}

// summarize prints the outcome split of the samples and their exact
// (nearest-rank) percentiles: latency from due to answer over the
// conclusive decisions, and generator lateness over all of them.
func summarize(w io.Writer, samples []sample, start time.Time) {
	counts := map[policy.Decision]int{}
	degraded := 0
	var latency, late []time.Duration
	for _, s := range samples {
		counts[s.decision]++
		if s.degraded {
			degraded++
		}
		if !s.failed() {
			latency = append(latency, s.done.Sub(s.due))
		}
		late = append(late, s.sent.Sub(s.due))
	}
	fmt.Fprintf(w, "loadd: %d decisions in %v: permit/deny/na/indet %d/%d/%d/%d, degraded %d | p50 %v p99 %v over %d conclusive | generator late p99 %v\n",
		len(samples), time.Since(start).Round(time.Millisecond),
		counts[policy.DecisionPermit], counts[policy.DecisionDeny],
		counts[policy.DecisionNotApplicable], counts[policy.DecisionIndeterminate], degraded,
		metrics.Percentile(latency, 50), metrics.Percentile(latency, 99), len(latency),
		metrics.Percentile(late, 99))
}
