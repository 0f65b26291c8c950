package resilience

import (
	"bufio"
	"io"
	"math"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Priority classes admission control distinguishes. The ordering is
// strict: Critical is never shed while Decision traffic is being admitted
// — the admin plane and health probes must stay reachable precisely when
// the system is overloaded enough to shed.
type Priority int

const (
	// Decision is sheddable decision-plane traffic.
	Decision Priority = iota
	// Critical is admin-plane writes, health probes and scrapes: admitted
	// regardless of the concurrency limit.
	Critical
)

// Outcome classifies a completed admitted request for the AIMD signal.
type Outcome int

const (
	// OutcomeSuccess grows the limit additively (subject to the latency
	// target — an over-target success still counts as congestion).
	OutcomeSuccess Outcome = iota
	// OutcomeFailure shrinks the limit multiplicatively: the server
	// indicted itself (5xx, timeout serving).
	OutcomeFailure
	// OutcomeNeutral releases the slot without moving the limit: the
	// client hung up or its deadline expired, which says nothing about
	// server congestion — a burst of impatient clients must not shrink
	// the limit on an otherwise healthy server.
	OutcomeNeutral
)

// AdmissionConfig parameterises an Admission controller.
type AdmissionConfig struct {
	// Initial is the starting concurrency limit; 64 when zero or negative.
	Initial int
	// Min floors the limit under multiplicative decrease; 4 when zero.
	Min int
	// Max ceilings the limit under additive increase; 16384 when zero.
	Max int
	// Backoff is the multiplicative-decrease factor applied per failed or
	// over-target completion; 0.9 when out of (0, 1).
	Backoff float64
	// LatencyTarget, when positive, counts completions slower than it as
	// congestion even if they succeeded — the gradient signal that shrinks
	// the limit before queueing turns into deadline expiry.
	LatencyTarget time.Duration
	// Clock overrides time.Now for latency measurement.
	Clock func() time.Time
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Initial <= 0 {
		c.Initial = 64
	}
	if c.Min <= 0 {
		c.Min = 4
	}
	if c.Max <= 0 {
		c.Max = 16384
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.Initial < c.Min {
		c.Initial = c.Min
	}
	if c.Initial > c.Max {
		c.Initial = c.Max
	}
	if c.Backoff <= 0 || c.Backoff >= 1 {
		c.Backoff = 0.9
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// AdmissionStats is a snapshot of controller activity.
type AdmissionStats struct {
	// Limit is the current adaptive concurrency limit.
	Limit float64
	// Inflight is the current admitted concurrency.
	Inflight int64
	// Admitted and Rejected count Acquire outcomes (Critical admissions
	// included in Admitted).
	Admitted, Rejected int64
	// Throttles counts multiplicative decreases applied to the limit.
	Throttles int64
}

// Admission is an adaptive (AIMD) concurrency limiter for ingress.
// Successful completions grow the limit additively (+1 per limit's worth
// of successes); failures and over-target latencies shrink it
// multiplicatively. Acquire/release are lock-free: an atomic inflight
// count checked against an atomic float limit.
type Admission struct {
	cfg      AdmissionConfig
	limit    atomic.Uint64 // math.Float64bits of the current limit
	inflight atomic.Int64

	admitted  atomic.Int64
	rejected  atomic.Int64
	throttles atomic.Int64
}

// NewAdmission builds a controller at cfg.Initial concurrency.
func NewAdmission(cfg AdmissionConfig) *Admission {
	a := &Admission{cfg: cfg.withDefaults()}
	a.limit.Store(math.Float64bits(float64(a.cfg.Initial)))
	return a
}

// Limit returns the current adaptive concurrency limit.
func (a *Admission) Limit() float64 {
	return math.Float64frombits(a.limit.Load())
}

// Inflight returns the admitted concurrency right now.
func (a *Admission) Inflight() int64 { return a.inflight.Load() }

// Acquire admits or rejects one request. Critical requests are always
// admitted; Decision requests are rejected when admitting them would
// exceed the current limit. The returned release must be called exactly
// once when the request completes, with the Outcome that classifies it:
// only server-indicted failures (and over-target successes, when a
// LatencyTarget is set) shrink the limit; OutcomeNeutral — client
// cancellation — leaves it untouched. Acquire returns (nil, false) on
// rejection.
func (a *Admission) Acquire(p Priority) (release func(Outcome), ok bool) {
	in := a.inflight.Add(1)
	if p != Critical && float64(in) > a.Limit() {
		a.inflight.Add(-1)
		a.rejected.Add(1)
		return nil, false
	}
	a.admitted.Add(1)
	start := a.cfg.Clock()
	return func(o Outcome) {
		a.inflight.Add(-1)
		if o == OutcomeSuccess && a.cfg.LatencyTarget > 0 && a.cfg.Clock().Sub(start) > a.cfg.LatencyTarget {
			o = OutcomeFailure
		}
		switch o {
		case OutcomeFailure:
			a.decrease()
		case OutcomeSuccess:
			a.increase()
		}
	}, true
}

// increase applies the additive step: limit += 1/limit, so the limit grows
// by ~1 per limit's worth of successful completions.
func (a *Admission) increase() {
	for {
		cur := a.limit.Load()
		lim := math.Float64frombits(cur)
		next := lim + 1/lim
		if next > float64(a.cfg.Max) {
			next = float64(a.cfg.Max)
		}
		if next == lim || a.limit.CompareAndSwap(cur, math.Float64bits(next)) {
			return
		}
	}
}

// decrease applies the multiplicative step: limit *= Backoff, floored at
// Min.
func (a *Admission) decrease() {
	for {
		cur := a.limit.Load()
		lim := math.Float64frombits(cur)
		next := lim * a.cfg.Backoff
		if next < float64(a.cfg.Min) {
			next = float64(a.cfg.Min)
		}
		if next == lim {
			return
		}
		if a.limit.CompareAndSwap(cur, math.Float64bits(next)) {
			a.throttles.Add(1)
			return
		}
	}
}

// Stats returns a snapshot of controller counters.
func (a *Admission) Stats() AdmissionStats {
	return AdmissionStats{
		Limit:     a.Limit(),
		Inflight:  a.inflight.Load(),
		Admitted:  a.admitted.Load(),
		Rejected:  a.rejected.Load(),
		Throttles: a.throttles.Load(),
	}
}

// RegisterMetrics exposes the controller's limit, in-flight count, sheds
// and throttles on the registry.
func (a *Admission) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("repro_admission_limit", "Current adaptive (AIMD) admission concurrency limit.", func() int64 { return int64(a.Limit()) })
	reg.GaugeFunc("repro_admission_inflight", "Admitted in-flight requests.", a.inflight.Load)
	reg.CounterFunc("repro_admission_rejected_total", "Requests shed at ingress by admission control.", a.rejected.Load)
	reg.CounterFunc("repro_admission_throttles_total", "Multiplicative decreases applied to the admission limit.", a.throttles.Load)
}

// Middleware wraps an HTTP handler with admission control. classify maps
// each request to its priority (nil classifies everything as Decision).
// Rejected requests get 503 with Retry-After: 1 — a distinct, fast signal
// the caller can act on while its deadline budget is still alive, unlike
// queueing into expiry. Only server-indicted completions (5xx, and
// over-target latencies via LatencyTarget) count as failure for the AIMD
// signal; a request context dead at completion means the client hung up
// and releases neutrally.
func (a *Admission) Middleware(classify func(*http.Request) Priority, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := Decision
		if classify != nil {
			p = classify(r)
		}
		release, ok := a.Acquire(p)
		if !ok {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded: admission limit reached", http.StatusServiceUnavailable)
			return
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		switch {
		case sw.code >= http.StatusInternalServerError:
			release(OutcomeFailure)
		case r.Context().Err() != nil:
			release(OutcomeNeutral)
		default:
			release(OutcomeSuccess)
		}
	})
}

// statusWriter records the response code for the admission failure signal.
// It forwards the optional ResponseWriter interfaces (Flusher, Hijacker,
// ReaderFrom, Pusher) so handlers behind the admission middleware keep
// streaming, WebSocket upgrades and sendfile, and unwraps for
// http.ResponseController.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if h, ok := w.ResponseWriter.(http.Hijacker); ok {
		return h.Hijack()
	}
	return nil, nil, http.ErrNotSupported
}

func (w *statusWriter) ReadFrom(src io.Reader) (int64, error) {
	// io.Copy uses the underlying writer's ReadFrom when it has one and
	// falls back to a plain copy otherwise.
	return io.Copy(w.ResponseWriter, src)
}

func (w *statusWriter) Push(target string, opts *http.PushOptions) error {
	if p, ok := w.ResponseWriter.(http.Pusher); ok {
		return p.Push(target, opts)
	}
	return http.ErrNotSupported
}
