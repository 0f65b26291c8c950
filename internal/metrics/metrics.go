// Package metrics provides the lightweight counters, histograms and table
// rendering the experiment harness uses to report results in the shape of
// the paper's discussion: latency distributions, message counts and rates.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count, lock-free so counters on
// measured hot paths do not serialize the code they observe.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// reservoirCap bounds how many raw samples a Histogram retains. Below the
// cap percentiles are exact; beyond it the histogram switches to reservoir
// sampling (Vitter's Algorithm R), so memory stays bounded no matter how
// long an experiment runs while count, mean and max remain exact.
const reservoirCap = 16384

// Histogram collects duration samples and reports percentiles. Counts,
// mean and max are tracked exactly; the percentile source is a bounded
// uniform reservoir, exact up to reservoirCap samples and a statistically
// unbiased estimate past it.
type Histogram struct {
	mu        sync.Mutex
	reservoir []time.Duration
	count     int64
	sum       time.Duration
	max       time.Duration
	rng       uint64
	// sortedView caches the sorted reservoir between observations, so a
	// run of percentile queries (p50, p95, p99, max — the harness's
	// reporting pattern) sorts once instead of once per query.
	sortedView []time.Duration
}

// rand steps a xorshift64 generator under h.mu; seeded from a fixed
// constant, so reservoir contents are reproducible run to run.
func (h *Histogram) rand() uint64 {
	if h.rng == 0 {
		h.rng = 0x9E3779B97F4A7C15
	}
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return h.rng
}

// Observe records a sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	switch {
	case len(h.reservoir) < reservoirCap:
		h.reservoir = append(h.reservoir, d)
		h.sortedView = nil
	default:
		// Algorithm R: the new sample replaces a uniformly random slot
		// with probability cap/count, keeping the reservoir a uniform
		// sample of everything observed.
		if j := h.rand() % uint64(h.count); j < reservoirCap {
			h.reservoir[j] = d
			h.sortedView = nil
		}
	}
}

// Count returns the number of samples observed (exact, not the retained
// reservoir size).
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.count)
}

// Mean returns the arithmetic mean over every observed sample, or zero
// without samples.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Percentile returns the p-th percentile (0 < p <= 100), or zero without
// samples. Exact up to reservoirCap samples, a reservoir estimate beyond.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.reservoir) == 0 {
		return 0
	}
	if h.sortedView == nil {
		h.sortedView = make([]time.Duration, len(h.reservoir))
		copy(h.sortedView, h.reservoir)
		sort.Slice(h.sortedView, func(i, j int) bool { return h.sortedView[i] < h.sortedView[j] })
	}
	idx := int(math.Ceil(p/100*float64(len(h.sortedView)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.sortedView) {
		idx = len(h.sortedView) - 1
	}
	return h.sortedView[idx]
}

// Max returns the largest sample ever observed (exact even when the
// reservoir has cycled it out).
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Imbalance reports how unevenly load spreads across units as the ratio
// of the largest load to the mean (1.0 is perfect balance). The cluster
// experiments use it to judge consistent-hash shard placement. Zero total
// load reports 1.0.
func Imbalance(loads []int64) float64 {
	if len(loads) == 0 {
		return 1.0
	}
	var sum, max int64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 1.0
	}
	mean := float64(sum) / float64(len(loads))
	return float64(max) / mean
}

// Table renders experiment results as an aligned text table, the output
// format of cmd/experiments.
type Table struct {
	// Title heads the table.
	Title string
	// Header names the columns.
	Header []string
	rows   [][]string
}

// NewTable builds a table with the given title and column names.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; values are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the rendered rows.
func (t *Table) Rows() [][]string { return t.rows }

// String renders the aligned table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString("== " + t.Title + " ==\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}
