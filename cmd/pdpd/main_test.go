package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/trace"
	"repro/internal/xacml"
)

// testAdmin builds an admin the way main() does, with an in-memory store
// and the given lint mode.
func testAdmin(t *testing.T, point *cluster.Router, root policy.Evaluable, mode analysis.Mode) *admin {
	t.Helper()
	adm, err := newAdmin(point, root, nil, mode, trace.NewTracer(trace.Options{}), audit.NewLog(64))
	if err != nil {
		t.Fatal(err)
	}
	return adm
}

func testBase(resources int) *policy.PolicySet {
	b := policy.NewPolicySet("base").Combining(policy.DenyOverrides)
	for i := 0; i < resources; i++ {
		res := fmt.Sprintf("res-%d", i)
		b.Add(policy.NewPolicy("pol-" + res).
			Combining(policy.FirstApplicable).
			When(policy.MatchResourceID(res)).
			Rule(policy.Permit("allow").When(policy.MatchActionID("read")).Build()).
			Rule(policy.Deny("default").Build()).
			Build())
	}
	return b.Build()
}

// TestAdminPreservesRootTarget pins root-level semantics across the
// administration pipeline: a file root carrying its own target (and
// obligations) must keep gating applicability after the store reassembles
// the root, and across live updates.
func TestAdminPreservesRootTarget(t *testing.T) {
	point, err := buildDecisionPoint(0, 1, 1, "failover", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Root target admits only res-0: requests for other resources must
	// stay NotApplicable even though a child for res-1 exists.
	root := policy.NewPolicySet("gated").
		Combining(policy.DenyOverrides).
		When(policy.MatchResourceID("res-0")).
		Add(testBase(2).Children[0]).
		Add(testBase(2).Children[1]).
		Build()
	adm := testAdmin(t, point, root, analysis.ModeWarn)
	outside := policy.NewAccessRequest("u", "res-1", "read")
	if got := policy.Decide(context.Background(), point, outside, time.Time{}); got.Decision != policy.DecisionNotApplicable {
		t.Fatalf("out-of-target decision = %v, want not-applicable (root target dropped?)", got.Decision)
	}
	if got := policy.Decide(context.Background(), point, policy.NewAccessRequest("u", "res-0", "read"), time.Time{}); got.Decision != policy.DecisionPermit {
		t.Fatalf("in-target decision = %v, want permit", got.Decision)
	}
	// The delta path preserves the root target too.
	body, err := xacml.MarshalJSON(testBase(2).Children[1])
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	adm.handlePolicy(rec, httptest.NewRequest(http.MethodPost, "/admin/policy", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST = %d: %s", rec.Code, rec.Body)
	}
	if got := policy.Decide(context.Background(), point, outside, time.Time{}); got.Decision != policy.DecisionNotApplicable {
		t.Fatalf("out-of-target decision after update = %v, want not-applicable", got.Decision)
	}
}

// TestAdminPolicyLintGate drives the static-analysis gate on the admin
// plane: strict mode rejects a write introducing an actual cross-policy
// conflict with 409 and the finding in the response body, leaving the
// store and the decision point untouched; warn mode accepts the same
// write but still reports the findings.
func TestAdminPolicyLintGate(t *testing.T) {
	// Unconditionally permits every action on res-0 — an actual modality
	// conflict with pol-res-0's unconditional deny "default" rule.
	clashing := policy.NewPolicy("rogue").
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID("res-0")).
		Rule(policy.Permit("open-door").Build()).
		Build()
	body, err := xacml.MarshalJSON(clashing)
	if err != nil {
		t.Fatal(err)
	}

	type wireFinding struct {
		Kind     string `json:"kind"`
		Severity string `json:"severity"`
		Actual   bool   `json:"actual"`
		Detail   string `json:"detail"`
	}
	type wireResult struct {
		ID       string        `json:"id"`
		Version  int           `json:"version"`
		Error    string        `json:"error"`
		Findings []wireFinding `json:"findings"`
		TraceID  string        `json:"trace_id"`
	}
	findConflict := func(t *testing.T, findings []wireFinding) wireFinding {
		t.Helper()
		for _, f := range findings {
			if f.Kind == "conflict" && f.Actual {
				return f
			}
		}
		t.Fatalf("no actual conflict finding in %+v", findings)
		return wireFinding{}
	}

	t.Run("strict-rejects", func(t *testing.T) {
		point, err := buildDecisionPoint(0, 1, 1, "failover", nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		adm := testAdmin(t, point, testBase(2), analysis.ModeStrict)
		before := policy.Decide(context.Background(), point, policy.NewAccessRequest("u", "res-0", "delete"), time.Time{})

		rec := httptest.NewRecorder()
		adm.handlePolicy(rec, httptest.NewRequest(http.MethodPost, "/admin/policy", bytes.NewReader(body)))
		if rec.Code != http.StatusConflict {
			t.Fatalf("strict POST = %d, want 409: %s", rec.Code, rec.Body)
		}
		var res wireResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("response body: %v", err)
		}
		if res.Error == "" {
			t.Fatalf("rejection carries no error: %+v", res)
		}
		if f := findConflict(t, res.Findings); f.Severity != "error" {
			t.Fatalf("conflict severity = %s, want error", f.Severity)
		}
		if res.TraceID == "" {
			t.Fatal("rejection is not stamped with a trace ID")
		}
		// Fail-closed: nothing stored, nothing visible, decision unchanged.
		if got := adm.store.History("rogue"); got != 0 {
			t.Fatalf("rejected policy has %d stored versions, want 0", got)
		}
		after := policy.Decide(context.Background(), point, policy.NewAccessRequest("u", "res-0", "delete"), time.Time{})
		if after.Decision != before.Decision {
			t.Fatalf("decision changed across rejected write: %v -> %v", before.Decision, after.Decision)
		}
		if got := adm.gate.Stats().Rejections; got != 1 {
			t.Fatalf("gate rejections = %d, want 1", got)
		}
		if events := adm.auditLog.Select(audit.Query{}); len(events) == 0 {
			t.Fatal("rejection left no audit event")
		}
	})

	t.Run("warn-reports", func(t *testing.T) {
		point, err := buildDecisionPoint(0, 1, 1, "failover", nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		adm := testAdmin(t, point, testBase(2), analysis.ModeWarn)
		rec := httptest.NewRecorder()
		adm.handlePolicy(rec, httptest.NewRequest(http.MethodPost, "/admin/policy", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("warn POST = %d, want 200: %s", rec.Code, rec.Body)
		}
		var res wireResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("response body: %v", err)
		}
		if res.Version != 1 {
			t.Fatalf("version = %d, want 1", res.Version)
		}
		findConflict(t, res.Findings)

		// GET serves the incrementally-maintained whole-base report.
		rec = httptest.NewRecorder()
		adm.handlePolicy(rec, httptest.NewRequest(http.MethodGet, "/admin/policy", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET = %d: %s", rec.Code, rec.Body)
		}
		var rep struct {
			Mode     string        `json:"mode"`
			Findings []wireFinding `json:"findings"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Mode != "warn" {
			t.Fatalf("mode = %q, want warn", rep.Mode)
		}
		findConflict(t, rep.Findings)
	})
}

// TestAdminLiveUpdates drives the daemon's live-administration pipeline on
// the default one-shard, one-replica router (one engine) and on a 4x2
// cluster: policies posted to /admin/policy change decisions
// without a restart, deletes revoke, and updates flow through the delta
// path rather than a rebuild.
func TestAdminLiveUpdates(t *testing.T) {
	for _, tc := range []struct {
		name             string
		shards, replicas int
	}{
		{"single-engine", 1, 1},
		{"4-shard-cluster", 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			point, err := buildDecisionPoint(time.Hour, tc.shards, tc.replicas, "failover", nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			adm := testAdmin(t, point, testBase(4), analysis.ModeWarn)
			req := policy.NewAccessRequest("u", "res-1", "write")
			if got := policy.Decide(context.Background(), point, req, time.Time{}); got.Decision != policy.DecisionDeny {
				t.Fatalf("seed decision = %v, want deny", got.Decision)
			}

			// POST a replacement permitting write on res-1.
			updated := policy.NewPolicy("pol-res-1").
				Combining(policy.FirstApplicable).
				When(policy.MatchResourceID("res-1")).
				Rule(policy.Permit("allow").When(policy.MatchActionID("write")).Build()).
				Rule(policy.Deny("default").Build()).
				Build()
			body, err := xacml.MarshalJSON(updated)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			adm.handlePolicy(rec, httptest.NewRequest(http.MethodPost, "/admin/policy", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("POST = %d: %s", rec.Code, rec.Body)
			}
			if got := policy.Decide(context.Background(), point, req, time.Time{}); got.Decision != policy.DecisionPermit {
				t.Fatalf("decision after POST = %v, want permit", got.Decision)
			}

			// DELETE revokes live.
			rec = httptest.NewRecorder()
			adm.handlePolicy(rec, httptest.NewRequest(http.MethodDelete, "/admin/policy?id=pol-res-1", nil))
			if rec.Code != http.StatusNoContent {
				t.Fatalf("DELETE = %d: %s", rec.Code, rec.Body)
			}
			if got := policy.Decide(context.Background(), point, req, time.Time{}); got.Decision != policy.DecisionNotApplicable {
				t.Fatalf("decision after DELETE = %v, want not-applicable", got.Decision)
			}
			rec = httptest.NewRecorder()
			adm.handlePolicy(rec, httptest.NewRequest(http.MethodDelete, "/admin/policy?id=pol-res-1", nil))
			if rec.Code != http.StatusNotFound {
				t.Fatalf("second DELETE = %d, want 404", rec.Code)
			}

			// Invalid documents are refused without touching the point.
			rec = httptest.NewRecorder()
			adm.handlePolicy(rec, httptest.NewRequest(http.MethodPost, "/admin/policy", bytes.NewReader([]byte("{not json"))))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("bad body = %d, want 400", rec.Code)
			}
			if adm.refreshErrs.Load() != 0 {
				t.Fatalf("refresh errors = %d, want 0", adm.refreshErrs.Load())
			}
		})
	}
}

// TestAdminWriteRetiresStaleDecisions: with -stale-grace the admin plane
// invalidates the last-known-good layer after every write it applies, so a
// permission revoked over /admin/policy cannot be served stale through a
// later outage — while a decision made after the write still can.
func TestAdminWriteRetiresStaleDecisions(t *testing.T) {
	router, err := buildDecisionPoint(0, 1, 2, "failover", nil,
		&resilience.Policy{Breaker: resilience.BreakerConfig{Threshold: 1, Cooldown: time.Minute}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stale := resilience.NewStaleCache(router, &resilience.Policy{StaleGrace: time.Minute})
	adm := testAdmin(t, router, testBase(2), analysis.ModeOff)
	adm.stale = stale
	revoked := policy.NewAccessRequest("u", "res-0", "read")
	kept := policy.NewAccessRequest("u", "res-1", "read")
	if got := policy.Decide(context.Background(), stale, revoked, time.Time{}); got.Decision != policy.DecisionPermit {
		t.Fatalf("seed decision = %+v, want permit", got)
	}

	rec := httptest.NewRecorder()
	adm.handlePolicy(rec, httptest.NewRequest(http.MethodDelete, "/admin/policy?id=pol-res-0", nil))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE = %d: %s", rec.Code, rec.Body)
	}
	if got := policy.Decide(context.Background(), stale, kept, time.Time{}); got.Decision != policy.DecisionPermit {
		t.Fatalf("post-write decision = %+v, want permit", got)
	}

	reps, err := router.Replicas(router.Shards()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		rep.SetDown(true)
	}
	if got := policy.Decide(context.Background(), stale, revoked, time.Time{}); got.Decision != policy.DecisionIndeterminate || got.Degraded {
		t.Fatalf("revoked key during outage = %+v, want fail-closed Indeterminate", got)
	}
	if got := policy.Decide(context.Background(), stale, kept, time.Time{}); got.Decision != policy.DecisionPermit || !got.Degraded {
		t.Fatalf("key decided after the write, during outage = %+v, want Degraded permit", got)
	}
}
