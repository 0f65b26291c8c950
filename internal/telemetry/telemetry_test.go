package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Microsecond, 0},                  // 1000ns <= 1024ns
		{1025 * time.Nanosecond, 1},            // just past bucket 0
		{2 * time.Microsecond, 1},              // <= 2048ns
		{time.Millisecond, 10},                 // 1e6ns <= 1024<<10
		{time.Second, 20},                      // 1e9ns <= 1024<<20
		{200 * time.Second, histFiniteBuckets}, // overflow
	}
	for _, c := range cases {
		if got := bucketFor(c.d.Nanoseconds()); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
		h.Observe(c.d)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	if s.Overflow != 1 {
		t.Fatalf("overflow = %d, want 1", s.Overflow)
	}
	var finite uint64
	for _, c := range s.Counts {
		finite += c
	}
	if finite+s.Overflow != s.Count {
		t.Fatalf("bucket sum %d + overflow %d != count %d", finite, s.Overflow, s.Count)
	}
	// Bucket upper bounds must be strictly increasing.
	for i := 1; i < histFiniteBuckets; i++ {
		if s.UpperBoundSeconds(i) <= s.UpperBoundSeconds(i-1) {
			t.Fatalf("bounds not increasing at %d", i)
		}
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	// 90 fast observations, 10 slow: p50 must land near the fast cluster,
	// p99 near the slow one; the log estimate is the containing bucket's
	// upper bound.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(80 * time.Millisecond)
	}
	s := h.Snapshot()
	p50, p99 := s.Quantile(0.5), s.Quantile(0.99)
	if p50 < 100*time.Microsecond || p50 > 200*time.Microsecond {
		t.Fatalf("p50 = %v, want within one bucket of 100µs", p50)
	}
	if p99 < 80*time.Millisecond || p99 > 160*time.Millisecond {
		t.Fatalf("p99 = %v, want within one bucket of 80ms", p99)
	}
	wantMean := (90*100*time.Microsecond + 10*80*time.Millisecond) / 100
	if got := s.Mean(); got != wantMean {
		t.Fatalf("mean = %v, want %v", got, wantMean)
	}

	// The quantile is the nearest rank ⌈q·n⌉: with q·n fractional the
	// rank rounds up (one fast + one slow: p99 is rank ⌈1.98⌉ = 2, the
	// slow one), and an exact product is the rank itself, float noise
	// included (q=0.5, n=4 → rank 2; q=0.07, n=100 → rank 7, though the
	// float product is 7.000000000000001).
	fast, slow := 100*time.Microsecond, 80*time.Millisecond
	cases := []struct {
		name       string
		fast, slow int
		q          float64
		want       time.Duration
	}{
		{"two samples, p99", 1, 1, 0.99, slow},
		{"148 fast + 2 slow, p99", 148, 2, 0.99, slow},
		{"exact product 0.5·4", 2, 2, 0.5, fast},
		{"exact product 0.07·100", 7, 93, 0.07, fast},
	}
	for _, c := range cases {
		var h Histogram
		for i := 0; i < c.fast; i++ {
			h.Observe(fast)
		}
		for i := 0; i < c.slow; i++ {
			h.Observe(slow)
		}
		got := h.Snapshot().Quantile(c.q)
		if want := time.Duration(upperBoundNs(bucketFor(c.want.Nanoseconds()))); got != want {
			t.Errorf("%s: Quantile(%v) = %v, want %v (the bucket of %v)", c.name, c.q, got, want, c.want)
		}
	}
}

// seriesLine matches one exposition sample line at the format level:
// name, optional {label="value",...} block, and a float value.
var seriesLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*")*\})? (\+Inf|-Inf|NaN|[-+0-9.eE]+)$`)

// parseExposition validates the text format line by line and returns the
// sample lines keyed by full series (name+labels).
func parseExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	series := make(map[string]string)
	typed := make(map[string]string)
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			continue
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if parts[3] != "counter" && parts[3] != "gauge" && parts[3] != "histogram" {
				t.Fatalf("line %d: unknown TYPE %q", ln+1, parts[3])
			}
			typed[parts[2]] = parts[3]
		default:
			if !seriesLine.MatchString(line) {
				t.Fatalf("line %d: not a valid sample line: %q", ln+1, line)
			}
			i := strings.LastIndexByte(line, ' ')
			series[line[:i]] = line[i+1:]
			// Every sample must belong to a declared family.
			name := line[:i]
			if j := strings.IndexByte(name, '{'); j >= 0 {
				name = name[:j]
			}
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if _, ok := typed[name]; !ok {
				if _, ok := typed[base]; !ok {
					t.Fatalf("line %d: sample %q has no TYPE declaration", ln+1, line)
				}
			}
		}
	}
	return series
}

func TestRenderExpositionParses(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("repro_decisions_total", "Total decisions.", L("outcome", "permit"))
	c.Add(7)
	g := r.NewGauge("repro_cache_entries", "Cache entries.")
	g.Set(42)
	h := r.NewHistogram("repro_decide_seconds", "Decision latency.", L("shard", `s"0\`))
	h.Observe(50 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(500 * time.Second) // overflow
	r.GaugeFunc("repro_epoch", "Active policy epoch.", func() int64 { return 9 })

	series := parseExposition(t, r.Render())
	if got := series[`repro_decisions_total{outcome="permit"}`]; got != "7" {
		t.Fatalf("counter = %q, want 7", got)
	}
	if got := series["repro_cache_entries"]; got != "42" {
		t.Fatalf("gauge = %q, want 42", got)
	}
	if got := series["repro_epoch"]; got != "9" {
		t.Fatalf("gauge func = %q, want 9", got)
	}
	// Histogram: +Inf bucket and _count agree; label value round-trips
	// escaped; cumulative counts are non-decreasing.
	inf := series[`repro_decide_seconds_bucket{shard="s\"0\\",le="+Inf"}`]
	cnt := series[`repro_decide_seconds_count{shard="s\"0\\"}`]
	if inf != "3" || cnt != "3" {
		t.Fatalf("+Inf bucket %q and count %q, want both 3", inf, cnt)
	}
	var prev float64
	for i := 0; i < histFiniteBuckets; i++ {
		key := fmt.Sprintf(`repro_decide_seconds_bucket{shard="s\"0\\",le="%s"}`,
			formatValue(HistogramSnapshot{}.UpperBoundSeconds(i)))
		v, err := strconv.ParseFloat(series[key], 64)
		if err != nil {
			t.Fatalf("bucket %d (%s): %v", i, key, err)
		}
		if v < prev {
			t.Fatalf("bucket %d not cumulative: %v < %v", i, v, prev)
		}
		prev = v
	}
	if prev != 2 {
		t.Fatalf("finite cumulative = %v, want 2 (one observation overflowed)", prev)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "x")
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "# TYPE x_total counter") {
		t.Fatalf("body missing TYPE line:\n%s", body)
	}
}

func TestRegisterPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "x")
	for name, fn := range map[string]func(){
		"duplicate":    func() { r.NewCounter("dup_total", "x") },
		"invalid name": func() { r.NewCounter("9bad", "x") },
		"empty name":   func() { r.NewCounter("", "x") },
		"bad kind":     func() { r.Register("ok_total", "x", Kind(99), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3) // ignored
	c.Inc()
	if c.Value() != 6 {
		t.Fatalf("counter = %d, want 6", c.Value())
	}
}

// TestConcurrentScrapeAndObserve hammers instruments from many goroutines
// while scraping; run under -race. Counts must reconcile exactly once the
// writers finish.
func TestConcurrentScrapeAndObserve(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("hits_total", "x")
	h := r.NewHistogram("lat_seconds", "x")
	g := r.NewGauge("depth", "x")

	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Render()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(time.Duration(w*1000+i) * time.Nanosecond)
				g.Add(1)
			}
		}(w)
	}
	// Registration concurrent with scraping must also be safe.
	for i := 0; i < 8; i++ {
		r.CounterFunc(fmt.Sprintf("late_%d_total", i), "x", func() int64 { return 1 })
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()

	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Fatalf("gauge = %d, want %d", g.Value(), workers*perWorker)
	}
}
