package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the root BENCHMARK.json: the metric list with the bound
// by which each end-to-end metric may get worse.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) gives them (the "exclusive" method),
// which is what the acceptance check uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n == 1 {
		return x[0], x[0], x[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4 // outside 0..4 when clamped: Python extrapolates too
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// loadSet reads the untraced output files of one set: a directory, or a
// comma-separated list of files. It returns workload → metric → values.
func loadSet(arg string) (map[string]map[string][]float64, error) {
	var files []string
	if info, err := os.Stat(arg); err == nil && info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(arg, "*-trace0-*.json")); err != nil {
			return nil, err
		}
	} else {
		files = strings.Split(arg, ",")
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no output files", arg)
	}
	set := map[string]map[string][]float64{}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if rep.Traced {
			continue // end-to-end numbers come from untraced runs only
		}
		if set[rep.Workload] == nil {
			set[rep.Workload] = map[string][]float64{}
		}
		for metric, v := range rep.Result.Metrics {
			set[rep.Workload][metric] = append(set[rep.Workload][metric], v.Value)
		}
	}
	return set, nil
}

// compareSets prints one row per workload × end-to-end metric: the two
// medians, the relative change (positive = worse), the wider of the two
// sets' interquartile spreads, the bound, and a verdict. `unresolved`
// means a spread wider than the bound: the metric cannot tell a
// regression of that size from noise, so it is not reported as unchanged.
func compareSets(w io.Writer, a, b string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the checkout root: %w", err)
	}
	var def benchmarkFile
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	setA, err := loadSet(a)
	if err != nil {
		return err
	}
	setB, err := loadSet(b)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn\tmedian A\tmedian B\tworse by\tspread\tbound\tverdict")
	regressed := 0
	for _, wl := range def.Workloads {
		for _, m := range def.EndToEnd {
			va, vb := setA[wl.Name][m.Name], setB[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t0\t-\t-\t-\t-\t%.3g\tmissing\n", wl.Name, m.Name, m.Unit, m.Bound)
				continue
			}
			a1, medA, a3 := quartiles(va)
			b1, medB, b3 := quartiles(vb)
			spread := math.Max((a3-a1)/medA, (b3-b1)/medB)
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, m.Unit, len(va), len(vb), medA, medB, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}
