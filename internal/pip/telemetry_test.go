package pip

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

// gatedProvider answers a role, fails with fail while it is set, and
// holds each fetch until gate closes while a gate is set.
type gatedProvider struct {
	fail    error
	gate    chan struct{}
	entered atomic.Int64
}

func (p *gatedProvider) Name() string { return "gated" }

func (p *gatedProvider) ResolveAttribute(context.Context, *policy.Request, policy.Category, string) (policy.Bag, error) {
	p.entered.Add(1)
	if p.gate != nil {
		<-p.gate
	}
	if p.fail != nil {
		return nil, p.fail
	}
	return policy.Singleton(policy.String("doctor")), nil
}

// TestPIPFamiliesGolden pins the repro_pip_* families a cache exposes:
// exactly these five, each with its kind and help text, and the values
// one scripted run gives them: a miss then a hit, a coalesced miss, a
// negative hit, and a fast fail once the breaker opens.
func TestPIPFamiliesGolden(t *testing.T) {
	golden := map[string]string{
		"repro_pip_cache_hits_total":               "counter Attribute lookups served from the PIP cache.",
		"repro_pip_cache_misses_total":             "counter Attribute lookups the PIP cache could not serve.",
		"repro_pip_cache_coalesced_total":          "counter Misses that piggybacked on another miss's in-flight backend fetch.",
		"repro_pip_cache_negative_hits_total":      "counter Attribute lookups answered by a cached backend failure.",
		"repro_pip_cache_breaker_fast_fails_total": "counter Attribute lookups refused by the backend circuit breaker.",
	}
	backend := &gatedProvider{}
	now := time.Date(2026, 5, 1, 8, 0, 0, 0, time.UTC)
	c := NewCache(backend, time.Minute, 0).
		WithClock(func() time.Time { return now }).
		WithNegativeTTL(2*time.Second).
		WithBreaker(2, time.Minute)
	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg)
	lookup := func(subject string) error {
		req := policy.NewAccessRequest(subject, "r", "read")
		_, err := c.ResolveAttribute(context.Background(), req, policy.CategorySubject, policy.AttrSubjectRole)
		return err
	}

	// A miss, then a hit on the same subject.
	for i := 0; i < 2; i++ {
		if err := lookup("alice"); err != nil {
			t.Fatal(err)
		}
	}

	// A second miss on a subject whose fetch is in flight coalesces.
	backend.gate = make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = lookup("bob") }()
	for backend.entered.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go func() { defer wg.Done(); _ = lookup("bob") }()
	for c.Stats().Coalesced < 1 {
		time.Sleep(time.Millisecond)
	}
	close(backend.gate)
	wg.Wait()
	backend.gate = nil

	// A failed fetch is remembered, then a second failure opens the
	// breaker and the next miss fails fast.
	backend.fail = errors.New("ldap down")
	for _, subject := range []string{"carol", "carol", "dave", "erin"} {
		if err := lookup(subject); err == nil {
			t.Fatalf("lookup %s succeeded against a failed backend", subject)
		}
	}

	out := reg.Render()
	telemetrytest.CheckFamilies(t, out, "repro_pip_", golden)
	for _, series := range []string{
		"repro_pip_cache_hits_total 1",
		"repro_pip_cache_misses_total 6",
		"repro_pip_cache_coalesced_total 1",
		"repro_pip_cache_negative_hits_total 1",
		"repro_pip_cache_breaker_fast_fails_total 1",
	} {
		if !strings.Contains(out, "\n"+series+"\n") {
			t.Errorf("exposition missing %s:\n%s", series, out)
		}
	}
}
