package resilience

import (
	"bufio"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

func TestAdmissionLimitEnforced(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Initial: 4, Min: 4, Max: 8})
	var releases []func(Outcome)
	for i := 0; i < 4; i++ {
		rel, ok := a.Acquire(Decision)
		if !ok {
			t.Fatalf("acquire %d rejected below the limit", i)
		}
		releases = append(releases, rel)
	}
	if _, ok := a.Acquire(Decision); ok {
		t.Fatal("acquire admitted beyond the limit")
	}
	// Critical traffic is never shed, even at the limit.
	rel, ok := a.Acquire(Critical)
	if !ok {
		t.Fatal("critical request shed")
	}
	rel(OutcomeSuccess)
	for _, r := range releases {
		r(OutcomeSuccess)
	}
	if in := a.Inflight(); in != 0 {
		t.Fatalf("inflight = %d after all releases", in)
	}
}

func TestAdmissionAIMD(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Initial: 10, Min: 4, Max: 100})
	start := a.Limit()

	// Failures shrink the limit multiplicatively...
	for i := 0; i < 5; i++ {
		rel, ok := a.Acquire(Decision)
		if !ok {
			t.Fatalf("acquire %d rejected", i)
		}
		rel(OutcomeFailure)
	}
	shrunk := a.Limit()
	if shrunk >= start {
		t.Fatalf("limit %v did not shrink from %v under failures", shrunk, start)
	}
	// ...to the floor, never below.
	for i := 0; i < 100; i++ {
		if rel, ok := a.Acquire(Decision); ok {
			rel(OutcomeFailure)
		}
	}
	if lim := a.Limit(); lim < 4 {
		t.Fatalf("limit %v fell below the floor", lim)
	}

	// Successes regrow it additively toward the ceiling.
	for i := 0; i < 20_000; i++ {
		if rel, ok := a.Acquire(Decision); ok {
			rel(OutcomeSuccess)
		}
	}
	if lim := a.Limit(); lim != 100 {
		t.Fatalf("limit %v did not regrow to the ceiling under sustained success", lim)
	}
}

func TestAdmissionLatencyTargetCountsAsPressure(t *testing.T) {
	now := time.Unix(0, 0)
	a := NewAdmission(AdmissionConfig{
		Initial: 10, Min: 4, Max: 100,
		LatencyTarget: 10 * time.Millisecond,
		Clock:         func() time.Time { return now },
	})
	before := a.Limit()
	rel, _ := a.Acquire(Decision)
	now = now.Add(50 * time.Millisecond) // completion over target
	rel(OutcomeSuccess)
	if lim := a.Limit(); lim >= before {
		t.Fatalf("limit %v did not shrink on an over-target completion (was %v)", lim, before)
	}
}

func TestAdmissionConcurrent(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Initial: 16, Min: 4, Max: 64})
	var peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				rel, ok := a.Acquire(Decision)
				if !ok {
					continue
				}
				if in := a.Inflight(); in > peak.Load() {
					peak.Store(in)
				}
				if i%10 == 0 {
					rel(OutcomeFailure)
				} else {
					rel(OutcomeSuccess)
				}
			}
		}()
	}
	wg.Wait()
	if in := a.Inflight(); in != 0 {
		t.Fatalf("inflight = %d after all goroutines drained", in)
	}
	// The limit never exceeded its ceiling, so admitted concurrency stays
	// within Max plus the transient Add-then-check window.
	if p := peak.Load(); p > 64+32 {
		t.Fatalf("peak inflight %d far exceeds the configured ceiling", p)
	}
}

// TestAdmissionNeutralRelease: client cancellations say nothing about
// server congestion, so a neutral release moves the limit in neither
// direction while still freeing the slot.
func TestAdmissionNeutralRelease(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Initial: 10, Min: 4, Max: 100})
	before := a.Limit()
	for i := 0; i < 50; i++ {
		rel, ok := a.Acquire(Decision)
		if !ok {
			t.Fatalf("acquire %d rejected below the limit", i)
		}
		rel(OutcomeNeutral)
	}
	if lim := a.Limit(); lim != before {
		t.Fatalf("limit moved %v -> %v under neutral releases", before, lim)
	}
	if in := a.Inflight(); in != 0 {
		t.Fatalf("inflight = %d after all neutral releases", in)
	}
}

// TestAdmissionMiddlewareClientCancelIsNeutral: a burst of impatient
// clients (request context dead at completion, response still 2xx) must
// not multiplicatively shrink the limit on a healthy server.
func TestAdmissionMiddlewareClientCancelIsNeutral(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Initial: 10, Min: 4, Max: 100})
	handler := a.Middleware(nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	before := a.Limit()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/decide", nil).WithContext(ctx))
	}
	if lim := a.Limit(); lim < before {
		t.Fatalf("client cancellations shrank the limit %v -> %v", before, lim)
	}
	// A genuine server failure still counts.
	boom := a.Middleware(nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	boom.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/decide", nil))
	if lim := a.Limit(); lim >= before {
		t.Fatalf("limit %v did not shrink on a 5xx completion (was %v)", a.Limit(), before)
	}
}

// hijackRecorder is a ResponseWriter that supports hijacking, recording
// whether the call reached it.
type hijackRecorder struct {
	http.ResponseWriter
	hijacked bool
}

func (h *hijackRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	h.hijacked = true
	return nil, nil, nil
}

// TestStatusWriterForwardsOptionalInterfaces: the admission middleware's
// wrapper must not hide Hijacker (WebSocket upgrades) or the other
// optional ResponseWriter interfaces from wrapped handlers.
func TestStatusWriterForwardsOptionalInterfaces(t *testing.T) {
	h := &hijackRecorder{ResponseWriter: httptest.NewRecorder()}
	sw := &statusWriter{ResponseWriter: h, code: http.StatusOK}
	if _, _, err := sw.Hijack(); err != nil || !h.hijacked {
		t.Fatalf("Hijack not forwarded (err=%v, reached=%v)", err, h.hijacked)
	}
	if got := sw.Unwrap(); got != http.ResponseWriter(h) {
		t.Fatal("Unwrap did not expose the underlying writer")
	}
	// A writer without Hijack support degrades to an error, not a panic.
	plain := &statusWriter{ResponseWriter: httptest.NewRecorder(), code: http.StatusOK}
	if _, _, err := plain.Hijack(); err == nil {
		t.Fatal("Hijack on a non-hijackable writer reported success")
	}
	if err := plain.Push("/asset", nil); err == nil {
		t.Fatal("Push on a non-pusher writer reported success")
	}
}

func TestAdmissionMiddleware(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Initial: 4, Min: 4, Max: 4})
	blocked := make(chan struct{})
	release := make(chan struct{})
	handler := a.Middleware(
		func(r *http.Request) Priority {
			if r.URL.Path == "/healthz" {
				return Critical
			}
			return Decision
		},
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/slow" {
				blocked <- struct{}{}
				<-release
			}
			w.WriteHeader(http.StatusOK)
		}))

	// Fill the limit with parked decision requests.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/slow", nil))
		}()
	}
	for i := 0; i < 4; i++ {
		<-blocked
	}

	// The next decision request sheds with 503 + Retry-After.
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/decide", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d at the limit, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}

	// A health probe still gets through.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("health probe shed with %d at the limit", rec.Code)
	}

	close(release)
	wg.Wait()
	if st := a.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want exactly the one shed decision request", st.Rejected)
	}
}

// TestAdmissionFamiliesGolden pins the repro_admission_* families an
// Admission exposes: exactly these four, each with its kind and help text,
// with a shed request counted under its fixed name.
func TestAdmissionFamiliesGolden(t *testing.T) {
	golden := map[string]string{
		"repro_admission_inflight":        "gauge Admitted in-flight requests.",
		"repro_admission_limit":           "gauge Current adaptive (AIMD) admission concurrency limit.",
		"repro_admission_rejected_total":  "counter Requests shed at ingress by admission control.",
		"repro_admission_throttles_total": "counter Multiplicative decreases applied to the admission limit.",
	}
	a := NewAdmission(AdmissionConfig{Initial: 1, Min: 1, Max: 1})
	reg := telemetry.NewRegistry()
	a.RegisterMetrics(reg)
	rel, _ := a.Acquire(Decision)
	if _, ok := a.Acquire(Decision); ok {
		t.Fatal("acquire admitted beyond the limit")
	}
	out := reg.Render()
	rel(OutcomeSuccess)

	telemetrytest.CheckFamilies(t, out, "repro_admission_", golden)
	for _, series := range []string{"repro_admission_inflight 1", "repro_admission_rejected_total 1"} {
		if !strings.Contains(out, "\n"+series+"\n") {
			t.Errorf("exposition missing %s:\n%s", series, out)
		}
	}
}
