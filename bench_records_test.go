package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestBenchRecordsOneSchema holds every committed BENCH_PR<N>.json to the
// one trajectory schema: alternating parent/change pairs of `bash
// bench/run.sh` runs, summarised per BENCHMARK.json workload as each
// end-to-end metric's parent and change quartiles, the pairs the change
// won, and the failed decisions summed per side. Keys beyond these (notes,
// micro-benchmarks, earlier builds) are allowed.
func TestBenchRecordsOneSchema(t *testing.T) {
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var workloads []string
	for _, w := range def.Workloads {
		workloads = append(workloads, w.Name)
	}

	type quartiles struct{ Q1, Median, Q3 *float64 }
	type metric struct {
		Parent, Change *quartiles
		ChangeWins     *int `json:"change_wins"`
	}
	type record struct {
		PR                *int
		Parent, Command   string
		NProc, GOMAXPROCS int
		Workloads         []struct {
			Workload string
			Pairs    int
			Metrics  map[string]metric
			Failed   *struct{ Parent, Change *int }
		}
	}

	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json files")
	}
	for _, name := range files {
		t.Run(name, func(t *testing.T) {
			n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "BENCH_PR"), ".json"))
			if err != nil {
				t.Fatal("file name is not BENCH_PR<N>.json")
			}
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			var rec record
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.PR == nil || *rec.PR != n {
				t.Errorf("pr = %v, want %d", rec.PR, n)
			}
			if rec.Parent == "" || rec.Command == "" || rec.NProc < 1 || rec.GOMAXPROCS < 1 {
				t.Errorf("parent %q, command %q, nproc %d, gomaxprocs %d: all must be set",
					rec.Parent, rec.Command, rec.NProc, rec.GOMAXPROCS)
			}
			if len(rec.Workloads) == 0 {
				t.Fatal("no workloads")
			}
			for i, w := range rec.Workloads {
				if !slices.Contains(workloads, w.Workload) {
					t.Errorf("workloads[%d]: %q is not a BENCHMARK.json workload", i, w.Workload)
				}
				if w.Pairs < 1 {
					t.Errorf("%s: pairs = %d, want >= 1", w.Workload, w.Pairs)
				}
				if w.Failed == nil || w.Failed.Parent == nil || w.Failed.Change == nil {
					t.Errorf("%s: failed.parent and failed.change must be set", w.Workload)
				}
				for _, m := range def.EndToEnd {
					got, ok := w.Metrics[m.Name]
					if !ok {
						t.Errorf("%s: metric %s missing", w.Workload, m.Name)
						continue
					}
					for side, q := range map[string]*quartiles{"parent": got.Parent, "change": got.Change} {
						if q == nil || q.Q1 == nil || q.Median == nil || q.Q3 == nil {
							t.Errorf("%s %s: %s quartiles missing", w.Workload, m.Name, side)
						} else if !(*q.Q1 <= *q.Median && *q.Median <= *q.Q3) {
							t.Errorf("%s %s: %s q1 %g, median %g, q3 %g out of order",
								w.Workload, m.Name, side, *q.Q1, *q.Median, *q.Q3)
						}
					}
					if got.ChangeWins == nil || *got.ChangeWins < 0 || *got.ChangeWins > w.Pairs {
						t.Errorf("%s %s: change_wins %v not in 0..%d", w.Workload, m.Name, got.ChangeWins, w.Pairs)
					}
				}
			}
		})
	}
}
