package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/chaos"
	"repro/internal/policy"
	"repro/internal/workload"
	"repro/internal/xacml"
)

// chaosClient drives a daemon's /admin/chaos endpoint: the remote flavour
// of the ha.Failable seams.
type chaosClient struct {
	endpoint string
	client   *http.Client
}

func newChaosClient(base string) *chaosClient {
	return &chaosClient{endpoint: base + "/admin/chaos", client: &http.Client{Timeout: 10 * time.Second}}
}

// topology returns shard names in listing order and the replica count.
func (c *chaosClient) topology(ctx context.Context) (shards []string, replicasPerShard int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpoint, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("chaos endpoint: %w (is the daemon running with -chaos and -shards > 1?)", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, 0, fmt.Errorf("chaos endpoint: %s: %s", resp.Status, body)
	}
	var state struct {
		Replicas []struct {
			Shard   string `json:"shard"`
			Replica int    `json:"replica"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		return nil, 0, err
	}
	seen := map[string]bool{}
	for _, r := range state.Replicas {
		if !seen[r.Shard] {
			seen[r.Shard] = true
			shards = append(shards, r.Shard)
		}
		if r.Replica+1 > replicasPerShard {
			replicasPerShard = r.Replica + 1
		}
	}
	if len(shards) == 0 {
		return nil, 0, fmt.Errorf("chaos endpoint reports no replicas")
	}
	return shards, replicasPerShard, nil
}

// inject posts one fault action.
func (c *chaosClient) inject(ctx context.Context, action, shard string, replica, stallMs int) error {
	body, err := json.Marshal(map[string]any{
		"action": action, "shard": shard, "replica": replica, "stall_ms": stallMs,
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.endpoint, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("chaos %s %s/%d: %s: %s", action, shard, replica, resp.Status, msg)
	}
	return nil
}

// action adapts one injection into a schedule Action.
func (c *chaosClient) action(action, shard string, replica int) chaos.Action {
	return func(ctx context.Context) error { return c.inject(ctx, action, shard, replica, 0) }
}

// shardWide applies one action to every replica of a shard — the
// "partition" fault: the whole shard group unreachable at once.
func (c *chaosClient) shardWide(action, shard string, replicas int) chaos.Action {
	return func(ctx context.Context) error {
		for r := 0; r < replicas; r++ {
			if err := c.inject(ctx, action, shard, r, 0); err != nil {
				return err
			}
		}
		return nil
	}
}

// scheduleConfig parameterises the built-in fault schedule.
type scheduleConfig struct {
	endpoint   string
	target     policy.Decider
	proc       *daemon
	resilience bool
	crash      time.Duration
	partition  time.Duration
	kill       time.Duration
	heal       time.Duration
}

// buildSchedule assembles the documented chaos run: seed the
// acknowledged-write ledger and snapshot the decision probes first, then
// schedule replica crash, shard partition and kill -9, each repaired
// after cfg.heal, with the strict recovery checks as the final events.
// The tolerant invariants sweep after every event. It returns the fault
// windows the partition and the kill declare; the crash declares none,
// because failover masks it.
func buildSchedule(ctx context.Context, cfg scheduleConfig) (*chaos.Orchestrator, []*window, error) {
	inj := newChaosClient(cfg.endpoint)
	shards, replicasPerShard, err := inj.topology(ctx)
	if err != nil {
		return nil, nil, err
	}

	// Acknowledged writes: sentinel policies written through the admin
	// plane before the faults start. The WAL contract says none of them
	// may ever disappear.
	acked := &chaos.AckedWrites{Target: cfg.target}
	for i := 0; i < 4; i++ {
		pol, req := sentinelPolicy(i)
		if err := putPolicy(ctx, cfg.endpoint+"/admin/policy", pol); err != nil {
			return nil, nil, fmt.Errorf("sentinel write %d: %w", i, err)
		}
		acked.Acknowledge(pol.EntityID(), req, policy.DecisionPermit)
	}

	// The probes are snapshot after the writes: a write retires the
	// daemon's last-known-good answers, and the staleness sweep needs the
	// probes' answers remembered when the partition starts.
	probes := []*policy.Request{warmProbe(0), warmProbe(1), warmProbe(2), warmProbe(3)}
	probe := &chaos.DecisionProbe{Target: cfg.target, Requests: probes}
	if err := probe.Snapshot(ctx); err != nil {
		return nil, nil, fmt.Errorf("probe snapshot: %w", err)
	}

	orch := chaos.New()
	var windows []*window
	last := time.Duration(0)
	add := func(at time.Duration, name string, do chaos.Action) {
		orch.Add(chaos.Event{At: at, Name: name, Do: do})
		if at > last {
			last = at
		}
	}
	// fault schedules inject at `at` and repair cfg.heal later; with
	// excused set it declares the fault's window.
	fault := func(at time.Duration, name string, inject chaos.Action, repairName string, repair chaos.Action, excused bool) {
		if excused {
			w := &window{name: name}
			windows = append(windows, w)
			inject, repair = w.opening(inject), w.closing(repair)
		}
		add(at, name, inject)
		add(at+cfg.heal, repairName, repair)
	}
	if cfg.crash > 0 {
		fault(cfg.crash, fmt.Sprintf("crash %s/replica-0", shards[0]), inj.action("crash", shards[0], 0),
			fmt.Sprintf("revive %s/replica-0", shards[0]), inj.action("revive", shards[0], 0), false)
	}
	if cfg.partition > 0 {
		shard := shards[len(shards)-1]
		if cfg.resilience {
			// The degraded-mode proof, taken while the partition still
			// holds (events at one offset fire in the order added): the
			// daemon itself must report stale serves.
			add(cfg.partition+cfg.heal, "verify degraded mode served stale", servedStale(cfg.endpoint))
		}
		fault(cfg.partition, fmt.Sprintf("partition shard %s (all %d replicas down)", shard, replicasPerShard),
			inj.shardWide("crash", shard, replicasPerShard),
			fmt.Sprintf("heal shard %s", shard), inj.shardWide("revive", shard, replicasPerShard), true)
	}
	if cfg.kill > 0 {
		fault(cfg.kill, "kill -9 pdpd", chaos.Kill9(cfg.proc),
			"restart pdpd (WAL recovery)", chaos.Restart(cfg.proc), true)
	}
	// Strict recovery checks after the last repair: decisions identical,
	// acknowledged writes provably in effect.
	verifyAt := last + cfg.heal
	add(verifyAt, "verify decisions recovered", chaos.Check(probe.Recovered(recoveryWindow)))
	add(verifyAt, "verify acked writes durable", chaos.Check(acked.Durable(recoveryWindow)))

	orch.Require(
		probe.Unchanged(),
		acked.Held(),
		chaos.FailClosed(cfg.target, warmProbe(4)),
	)
	if cfg.resilience {
		for _, req := range probes {
			orch.Require(chaos.StalenessBounded(cfg.target, req, staleGrace))
		}
	}
	return orch, windows, nil
}

// servedStale fails unless the daemon's repro_stale_served_total is at
// least one.
func servedStale(endpoint string) chaos.Action {
	return func(ctx context.Context) error {
		served, err := scrapeCounter(ctx, endpoint+"/metrics", "repro_stale_served_total")
		if err != nil {
			return err
		}
		if served < 1 {
			return fmt.Errorf("daemon served no stale decisions: degraded mode never engaged")
		}
		return nil
	}
}

// warmProbe is a request the load shape's base permits: role r reads
// resource r, which it owns (resource i is owned by role i mod Roles).
func warmProbe(i int) *policy.Request {
	role := i % loadShape.Roles
	return policy.NewAccessRequest(workload.UserID(i), workload.ResourceID(role), "read").
		Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String(workload.RoleID(role)))
}

// sentinelPolicy is an acknowledged-write probe policy on a resource
// outside the load shape's space.
func sentinelPolicy(i int) (*policy.Policy, *policy.Request) {
	res := fmt.Sprintf("loadd-acked-res-%d", i)
	pol := policy.NewPolicy(fmt.Sprintf("loadd-acked-%d", i)).
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID(res)).
		Rule(policy.Permit("allow-read").When(policy.MatchActionID("read")).Build()).
		Rule(policy.Deny("default").Build()).
		Build()
	return pol, policy.NewAccessRequest("loadd-auditor", res, "read")
}

// putPolicy POSTs pol as XACML JSON to the daemon's admin URL. Only a 200
// acknowledges the write; anything else (a 409 from the strict lint gate
// included) is an error.
func putPolicy(ctx context.Context, url string, pol policy.Evaluable) error {
	doc, err := xacml.MarshalJSON(pol)
	if err != nil {
		return fmt.Errorf("encode policy %s: %w", pol.EntityID(), err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(doc))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("admin put %s: %s: %s", pol.EntityID(), resp.Status, body)
	}
	return nil
}
