package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/ha"
)

// chaosAdmin serves /admin/chaos, the fault-injection plane cmd/loadd's
// chaos schedules drive against a live daemon. It only exists behind the
// -chaos flag — production deployments never expose it — and it only
// reaches faults the decision plane is designed to survive: marking
// replicas down (ha.Failable.SetDown, the crash the ensemble fails over)
// and stalling them (SetStall, the slow-replica mode only deadline budgets
// route around). Process-level kill -9 stays outside: that is the harness
// killing the real pdpd and watching WAL recovery, not an endpoint.
type chaosAdmin struct {
	router *cluster.Router
}

// chaosRequest is the POST body: which replica of which shard, and what to
// do to it. Shard names are the ones /stats lists.
type chaosRequest struct {
	// Action is crash, revive or stall.
	Action string `json:"action"`
	// Shard names the shard group; empty applies to every shard.
	Shard string `json:"shard"`
	// Replica indexes into the shard group's replica list.
	Replica int `json:"replica"`
	// StallMs arms a per-decision stall (action=stall); 0 repairs it.
	StallMs int `json:"stall_ms"`
}

// replicaState is one replica's fault state in the response.
type replicaState struct {
	Shard   string `json:"shard"`
	Replica int    `json:"replica"`
	Name    string `json:"name"`
	Down    bool   `json:"down"`
	Queries int64  `json:"queries"`
}

// state lists every replica's fault state, shard-ordered.
func (c *chaosAdmin) state() ([]replicaState, error) {
	var out []replicaState
	for _, shard := range c.router.Shards() {
		replicas, err := c.router.Replicas(shard)
		if err != nil {
			return nil, err
		}
		for i, r := range replicas {
			out = append(out, replicaState{
				Shard: shard, Replica: i, Name: r.Name(),
				Down: r.Down(), Queries: r.Queries(),
			})
		}
	}
	return out, nil
}

// targets resolves the request's shard/replica selector.
func (c *chaosAdmin) targets(req chaosRequest) ([]*ha.Failable, error) {
	shards := c.router.Shards()
	if req.Shard != "" {
		shards = []string{req.Shard}
	}
	var out []*ha.Failable
	for _, shard := range shards {
		replicas, err := c.router.Replicas(shard)
		if err != nil {
			return nil, fmt.Errorf("shard %q: %w", shard, err)
		}
		if req.Replica < 0 || req.Replica >= len(replicas) {
			return nil, fmt.Errorf("shard %q: replica %d out of range [0,%d)", shard, req.Replica, len(replicas))
		}
		out = append(out, replicas[req.Replica])
	}
	return out, nil
}

// ServeHTTP: GET returns the fault state; POST applies one injection.
func (c *chaosAdmin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		c.respondState(w)
	case http.MethodPost:
		var req chaosRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		targets, err := c.targets(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		switch req.Action {
		case "crash":
			for _, t := range targets {
				t.SetDown(true)
			}
		case "revive":
			for _, t := range targets {
				t.SetDown(false)
			}
		case "stall":
			for _, t := range targets {
				t.SetStall(time.Duration(req.StallMs) * time.Millisecond)
			}
		default:
			http.Error(w, fmt.Sprintf("unknown action %q (want crash, revive or stall)", req.Action), http.StatusBadRequest)
			return
		}
		c.respondState(w)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (c *chaosAdmin) respondState(w http.ResponseWriter) {
	state, err := c.state()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Replicas []replicaState `json:"replicas"`
	}{state})
}
