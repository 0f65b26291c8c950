package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/workload"
)

// chaosFixture builds a 2x2 cluster serving the workload base and the
// /admin/chaos handler over it.
func chaosFixture(t *testing.T) (*chaosAdmin, *cluster.Router) {
	t.Helper()
	router, err := buildDecisionPoint(0, 2, 2, "failover", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Config{Users: 10, Resources: 16, Roles: 4})
	if err := router.SetRoot(gen.PolicyBase("root")); err != nil {
		t.Fatal(err)
	}
	return &chaosAdmin{router: router}, router
}

func postChaos(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/admin/chaos", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func chaosState(t *testing.T, h http.Handler) []replicaState {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/chaos", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /admin/chaos: %d %s", rec.Code, rec.Body)
	}
	var out struct {
		Replicas []replicaState `json:"replicas"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Replicas
}

func TestChaosEndpointCrashReviveSurvivesFailover(t *testing.T) {
	h, point := chaosFixture(t)
	state := chaosState(t, h)
	if len(state) != 4 {
		t.Fatalf("replica state = %+v, want 2 shards x 2 replicas", state)
	}
	shard := state[0].Shard

	// Crash replica 0 of one shard: state must show it down, and decisions
	// must keep flowing through the failover replica.
	if rec := postChaos(t, h, `{"action":"crash","shard":"`+shard+`","replica":0}`); rec.Code != http.StatusOK {
		t.Fatalf("crash: %d %s", rec.Code, rec.Body)
	}
	downs := 0
	for _, r := range chaosState(t, h) {
		if r.Down {
			downs++
			if r.Shard != shard || r.Replica != 0 {
				t.Fatalf("wrong replica down: %+v", r)
			}
		}
	}
	if downs != 1 {
		t.Fatalf("%d replicas down, want exactly 1", downs)
	}
	req := policy.NewAccessRequest(workload.UserID(0), workload.ResourceID(0), "read").
		Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String(workload.RoleID(0)))
	if res := policy.Decide(context.Background(), point, req, time.Time{}); res.Decision != policy.DecisionPermit {
		t.Fatalf("decision with one replica crashed = %v (%v), want Permit via failover", res.Decision, res.Err)
	}

	// Revive with no shard selector: every replica back up.
	if rec := postChaos(t, h, `{"action":"revive","replica":0}`); rec.Code != http.StatusOK {
		t.Fatalf("revive: %d %s", rec.Code, rec.Body)
	}
	for _, r := range chaosState(t, h) {
		if r.Down {
			t.Fatalf("replica still down after revive: %+v", r)
		}
	}
}

func TestChaosEndpointStallAndBadRequests(t *testing.T) {
	h, _ := chaosFixture(t)
	shard := chaosState(t, h)[0].Shard
	if rec := postChaos(t, h, `{"action":"stall","shard":"`+shard+`","replica":1,"stall_ms":5}`); rec.Code != http.StatusOK {
		t.Fatalf("stall: %d %s", rec.Code, rec.Body)
	}
	if rec := postChaos(t, h, `{"action":"stall","shard":"`+shard+`","replica":1,"stall_ms":0}`); rec.Code != http.StatusOK {
		t.Fatalf("unstall: %d %s", rec.Code, rec.Body)
	}

	if rec := postChaos(t, h, `{"action":"explode","replica":0}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown action: %d", rec.Code)
	}
	if rec := postChaos(t, h, `{"action":"crash","shard":"no-such-shard","replica":0}`); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown shard: %d", rec.Code)
	}
	if rec := postChaos(t, h, `{"action":"crash","shard":"`+shard+`","replica":9}`); rec.Code != http.StatusNotFound {
		t.Fatalf("replica out of range: %d", rec.Code)
	}
	if rec := postChaos(t, h, `not json`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", rec.Code)
	}
}
