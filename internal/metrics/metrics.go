// Package metrics renders the experiment harness's results as aligned
// text tables (the output of cmd/experiments) and computes the shard-load
// imbalance the cluster walkthrough reports. Streaming latency
// distributions are telemetry.Histogram's job; this package keeps no
// samples, it only ranks the ones a caller hands it (Percentile).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// ds, the sample at index ⌈p/100·n⌉−1 once sorted, or zero without
// samples. It sorts ds in place.
func Percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	idx := int(math.Ceil(p/100*float64(len(ds)))) - 1
	return ds[max(0, min(idx, len(ds)-1))]
}

// Imbalance reports how unevenly load spreads across units as the ratio
// of the largest load to the mean (1.0 is perfect balance). The cluster
// walkthrough uses it to judge consistent-hash shard placement. Zero total
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
