package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

// standIn serves the daemon's decision endpoints in-process (the ladder's
// handler stack: pdpd's own wiring) plus an /admin/policy that only
// acknowledges, so the driver, the oracle and the failure accounting are
// exercised in well under 5 s and without a `go build`.
func standIn(t *testing.T, w spec) *httptest.Server {
	t.Helper()
	decisions, err := newLadder(w, 1).handler(true)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", decisions)
	mux.HandleFunc("/admin/policy", func(rw http.ResponseWriter, _ *http.Request) { rw.WriteHeader(http.StatusOK) })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestSmokeEveryTrafficShape(t *testing.T) {
	for _, w := range []spec{
		{name: "open", users: 32, resources: 64, batch: 1, clients: 2, openRate: 500},
		{name: "closed-cold", users: 500, resources: 64, veto: true, batch: 1, clients: 2},
		{name: "batch-cold", users: 500, resources: 64, veto: true, batch: 8, clients: 2},
		{name: "mixed", users: 32, resources: 64, batch: 1, clients: 1, writesPerS: 100},
	} {
		t.Run(w.name, func(t *testing.T) {
			srv := standIn(t, w)
			in, err := generate(w, 7, 1)
			if err != nil {
				t.Fatal(err)
			}
			in.calls = in.calls[:min(len(in.calls), 4096)]
			win := window{w: w, url: srv.URL, calls: in.calls, cyclic: in.cyclic, writes: in.writes, seconds: 0.3, seed: 7}
			tally := verify(w, in.calls, win.run())
			if tally.attempted == 0 || tally.failed() != 0 {
				t.Fatalf("attempted %d, failed %d (%s) %s", tally.attempted, tally.failed(), tally.reasons(), tally.firstWrong)
			}
			if w.writesPerS > 0 && tally.writesOK == 0 {
				t.Error("no admin write acknowledged")
			}
			if w.openRate > 0 {
				if n := len(tally.latency); n < 100 || n > 200 {
					t.Errorf("open loop at %v/s for 0.3 s sent %d calls", w.openRate, n)
				}
			}
		})
	}
}

// TestWrongAnswersAreCounted: a conclusive answer that differs from the
// oracle is a failure of its own kind, and the only one that marks the run
// incorrect.
func TestWrongAnswersAreCounted(t *testing.T) {
	w := spec{name: "closed", users: 32, resources: 64, batch: 1, clients: 1}
	srv := standIn(t, w)
	in, err := generate(w, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	calls := in.calls[:256]
	for i := range calls { // an oracle that is wrong about everything
		for k, d := range calls[i].expect {
			calls[i].expect[k] = permit + deny - d
		}
	}
	win := window{w: w, url: srv.URL, calls: calls, seconds: 5}
	tally := verify(w, calls, win.run())
	if tally.wrong != 256 || tally.correct != 0 || tally.failed() != 256 {
		t.Fatalf("wrong %d, correct %d, failed %d; want 256, 0, 256", tally.wrong, tally.correct, tally.failed())
	}
	rep := &report{Failures: map[string]int{}, Result: result{Correct: true}}
	rep.account(tally)
	if rep.Result.Correct || rep.Result.Failed != 256 || rep.Failures["wrong"] != 256 {
		t.Errorf("report: %+v %v", rep.Result, rep.Failures)
	}
}

// TestShedAndTransportFailuresAreCounted: refused and unanswered calls
// count against the number attempted.
func TestShedAndTransportFailuresAreCounted(t *testing.T) {
	w := spec{name: "closed", users: 32, resources: 64, batch: 1, clients: 1}
	in, err := generate(w, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	calls := in.calls[:64]
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusServiceUnavailable)
	}))
	tally := verify(w, calls, window{w: w, url: srv.URL, calls: calls, seconds: 5}.run())
	srv.Close()
	if tally.shed != 64 || tally.failed() != 64 {
		t.Errorf("shed %d, failed %d; want 64, 64", tally.shed, tally.failed())
	}
	// The server is gone: every call is a transport failure.
	tally = verify(w, calls, window{w: w, url: srv.URL, calls: calls, seconds: 5}.run())
	if tally.transport != 64 || tally.failed() != 64 {
		t.Errorf("transport %d, failed %d; want 64, 64", tally.transport, tally.failed())
	}
}

// TestBenchmarkFileMatchesTheCode keeps BENCHMARK.json and the metric and
// workload tables in step.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Paths) != 1 || def.Paths[0] != "bench" {
		t.Errorf("paths = %v", def.Paths)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || len(def.Workloads[i].Why) == 0 || len(def.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: %q vs %q (why: %d chars)", i, def.Workloads[i].Name, w.name, len(def.Workloads[i].Why))
		}
	}
	if len(def.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in report.go", len(def.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		got := def.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v vs %+v", i, got, m)
		}
	}
	if len(def.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in report.go", len(def.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		if got := def.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d: %+v vs %+v", i, got, m)
		}
	}
}
