package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/audit"
	"repro/internal/pdp"
	"repro/internal/pip"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// rolePolicy permits read on res-0 for subjects holding the auditor role.
// Requests carry only the subject ID, so the role must come from the PIP.
func rolePolicy() *policy.PolicySet {
	return policy.NewPolicySet("role-base").Combining(policy.DenyOverrides).
		Add(policy.NewPolicy("pol-res-0").
			Combining(policy.FirstApplicable).
			When(policy.MatchResourceID("res-0")).
			Rule(policy.Permit("auditors").When(policy.MatchRole("auditor")).Build()).
			Rule(policy.Deny("default").Build()).
			Build()).
		Build()
}

// TestDaemonObservabilitySurface assembles the daemon's serving surface the
// way main() does — a 2x2 router (bench's shape) with a subjects-file PIP,
// wire handler with a tracer, /metrics and /debug/traces on the mux — and
// checks one decision shows up on every exposition: the decision counters
// summed over the router's engines, the per-engine epoch, the PIP
// counters, and a retained trace whose spans cover the wire and
// evaluation layers. A routed single decision traces like a single one: a
// pdp.eval span carrying the outcome, no pdp.batch.
func TestDaemonObservabilitySurface(t *testing.T) {
	subjectsPath := filepath.Join(t.TempDir(), "subjects.json")
	err := os.WriteFile(subjectsPath,
		[]byte(`[{"id":"alice","domain":"hospital","roles":["auditor"],"clearance":3}]`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := loadSubjects(subjectsPath)
	if err != nil {
		t.Fatal(err)
	}
	if dir.Len() != 1 {
		t.Fatalf("loaded %d subjects, want 1", dir.Len())
	}

	reg := telemetry.NewRegistry()
	reg.RegisterGoGC()
	cache := pip.NewCachedChain("pdpd-pip", time.Minute, dir)
	cache.RegisterMetrics(reg)
	point, err := buildDecisionPoint(time.Minute, 2, 2, "failover", cache, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newAdmin(point, rolePolicy(), nil, analysis.ModeOff, trace.NewTracer(trace.Options{}), audit.NewLog(16)); err != nil {
		t.Fatal(err)
	}
	tracer := trace.NewTracer(trace.Options{Sample: 1})
	tracer.RegisterMetrics(reg)

	mux := http.NewServeMux()
	mux.Handle("/decide", wire.HTTPHandler(pdp.Handler(point), wire.WithTracer(tracer)))
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/traces", tracer.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	client := pdp.NewClient(srv.URL+"/decide", "gw", "pdpd")
	res := policy.Decide(context.Background(), client, policy.NewAccessRequest("alice", "res-0", "read"), time.Time{})
	if res.Decision != policy.DecisionPermit {
		t.Fatalf("decision = %v, want permit (PIP role resolution)", res.Decision)
	}

	runtime.GC()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		`repro_pdp_decisions_total{outcome="permit"} 1`,
		"repro_pdp_evaluations_total 1",
		"repro_pdp_compiled_evaluations_total 1",
		"repro_pdp_fallback_evaluations_total 0",
		`repro_pdp_epoch{engine="pdpd/shard-0/r0"} 1`,
		`repro_pdp_epoch{engine="pdpd/shard-1/r1"} 1`,
		"repro_pip_cache_misses_total 1",
		"repro_trace_started_total 1",
		`repro_trace_kept_total{cause="sampled"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The collector's work is on /metrics, with at least the cycle forced
	// above counted.
	for _, name := range []string{"repro_go_gc_cycles_total", "repro_go_gc_heap_goal_bytes", "repro_go_gc_pause_seconds_total"} {
		i := strings.Index(metrics, "\n"+name+" ")
		if i < 0 {
			t.Errorf("/metrics missing %s", name)
			continue
		}
		line := metrics[i+len(name)+2:]
		v, err := strconv.ParseFloat(line[:strings.IndexByte(line, '\n')], 64)
		if err != nil || v <= 0 {
			t.Errorf("%s = %q, want a positive number", name, line[:strings.IndexByte(line, '\n')])
		}
	}

	resp, err = http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Stats  trace.Stats     `json:"stats"`
		Traces []*trace.Record `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(out.Traces))
	}
	rec := out.Traces[0]
	if !strings.HasPrefix(rec.Root, "serve ") {
		t.Errorf("trace root = %q, want a serve span", rec.Root)
	}
	spanNames := make(map[string]bool, len(rec.Spans))
	for _, sp := range rec.Spans {
		spanNames[sp.Name] = true
		if sp.Name != "pdp.eval" {
			continue
		}
		attrs := make(map[string]string, len(sp.Attrs))
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["pdp.decision"] != policy.DecisionPermit.String() || attrs["pdp.cache"] != "miss" {
			t.Errorf("pdp.eval attrs = %v, want pdp.decision=%s pdp.cache=miss", attrs, policy.DecisionPermit)
		}
	}
	for _, want := range []string{"cluster.shard", "pdp.eval", "pip.fetch"} {
		if !spanNames[want] {
			t.Errorf("trace spans %v missing %q", keys(spanNames), want)
		}
	}
	if spanNames["pdp.batch"] {
		t.Errorf("trace spans %v: a single decision opened a pdp.batch span", keys(spanNames))
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
