// Package benchfmt is the machine-readable benchmark interchange format
// shared by cmd/benchjson and the CI regression gate. A Doc is the
// committed BENCH_<PR>.json unit of the perf trajectory: each PR's
// benchmark run becomes one document, and the gate diffs a fresh run
// against the committed baseline so a regression fails the build instead
// of rotting silently in a log.
package benchfmt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Doc is one benchmark document: the parse of a `go test -bench` run.
type Doc struct {
	// Goos, Goarch, Pkg and CPU echo the bench header when present.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Benchmarks are the result entries, in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one result entry.
type Benchmark struct {
	// Name is the benchmark name including sub-bench path and -cpu
	// suffix, as printed (e.g. "BenchmarkParallelDecide/hit-16").
	Name string `json:"name"`
	// Runs is the measured iteration count (the b.N column).
	Runs int64 `json:"runs"`
	// Metrics maps each reported unit to its value: ns/op, B/op,
	// allocs/op and custom b.ReportMetric units alike.
	Metrics map[string]float64 `json:"metrics"`
}

// Find returns the entry with the given name, or nil.
func (d *Doc) Find(name string) *Benchmark {
	for i := range d.Benchmarks {
		if d.Benchmarks[i].Name == name {
			return &d.Benchmarks[i]
		}
	}
	return nil
}

// Parse reads `go test -bench` text output. Non-benchmark lines (test
// chatter, PASS/ok trailers) are skipped; malformed Benchmark lines are an
// error so truncated logs do not silently yield partial documents.
func Parse(r io.Reader) (*Doc, error) {
	doc := &Doc{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		var rest string
		switch {
		case scanHeader(line, "goos: ", &rest):
			doc.Goos = rest
		case scanHeader(line, "goarch: ", &rest):
			doc.Goarch = rest
		case scanHeader(line, "pkg: ", &rest):
			doc.Pkg = rest
		case scanHeader(line, "cpu: ", &rest):
			doc.CPU = rest
		case len(line) > 9 && line[:9] == "Benchmark":
			b, err := parseResult(line)
			if err != nil {
				return nil, err
			}
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}

// Read sniffs the input: a JSON document (first non-space byte '{') is
// decoded as a Doc, anything else is parsed as `go test -bench` text. This
// lets a fresh bench run pipe straight into the comparator while committed
// baselines stay JSON.
func Read(r io.Reader) (*Doc, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) > 0 && trimmed[0] == '{' {
		doc := &Doc{}
		if err := json.Unmarshal(trimmed, doc); err != nil {
			return nil, fmt.Errorf("benchfmt: decode JSON document: %w", err)
		}
		return doc, nil
	}
	return Parse(bytes.NewReader(data))
}

func scanHeader(line, prefix string, rest *string) bool {
	if len(line) < len(prefix) || line[:len(prefix)] != prefix {
		return false
	}
	*rest = line[len(prefix):]
	return true
}

// parseResult parses one result line: name, iteration count, then
// value/unit pairs.
func parseResult(line string) (Benchmark, error) {
	fields := splitFields(line)
	if len(fields) < 2 {
		return Benchmark{}, fmt.Errorf("malformed bench line %q", line)
	}
	b := Benchmark{Name: fields[0], Metrics: map[string]float64{}}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bench line %q: bad run count %q", line, fields[1])
	}
	b.Runs = runs
	pairs := fields[2:]
	if len(pairs)%2 != 0 {
		return Benchmark{}, fmt.Errorf("bench line %q: odd value/unit fields", line)
	}
	for i := 0; i < len(pairs); i += 2 {
		v, err := strconv.ParseFloat(pairs[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("bench line %q: bad value %q", line, pairs[i])
		}
		b.Metrics[pairs[i+1]] = v
	}
	return b, nil
}

func splitFields(line string) []string {
	var out []string
	start := -1
	for i, r := range line {
		if r == ' ' || r == '\t' {
			if start >= 0 {
				out = append(out, line[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, line[start:])
	}
	return out
}
