// Command pdpd serves a Policy Decision Point over HTTP: the standalone
// deployment of the pull model. It loads a policy file (XML or JSON),
// listens for envelope-wrapped XACML request contexts on /decide (one per
// envelope) and /decide-batch (many per envelope, wire batch framing),
// answers with response contexts, and exposes statistics on /stats. The
// statistics are harvested from atomic counters (CacheHits and
// CacheEntries count the front decision cache), so polling /stats never
// stalls the decision hot path.
//
// The daemon always serves a cluster.Router: the policy base is
// partitioned across -shards shard groups by a consistent-hash ring over
// resource keys, and each shard is replicated -replicas ways under the
// chosen -strategy, so decisions survive replica crashes. The defaults,
// one shard of one replica, route every decision to one engine.
//
// The daemon administers policy live: the loaded file seeds an in-process
// Policy Administration Point, and /admin/policy accepts writes while
// decisions are being served. POST (or PUT) stores the XACML policy in the
// body; DELETE ?id=... removes one. Each change propagates through the
// incremental delta pipeline — only the affected root child is patched, on
// only the owning shard group(s), and only the cached decisions for the
// resource keys of its old and new version are invalidated — so policy
// churn does not flush the decision cache or stall the hot path. Root
// children are kept in policy-ID order, the administration pipeline's
// deterministic ordering.
// Refresh failures are counted in /stats as refresh_errors.
//
// Admin writes pass through the static policy lint gate (-policy-lint),
// the pre-commit gate analysis.GateStore puts on the store, as the core
// facade puts it on every domain's store: "warn" (the default) runs the incremental analysis on every write and
// returns the findings the write introduces in the response; "strict"
// additionally rejects writes that introduce blocking findings (actual
// cross-policy conflicts, cross-policy shadowing) with 409 and the
// findings in the body — strict is fail-closed: the write is vetoed
// before it becomes durable or visible, so a rejected policy leaves no
// trace in the store, the WAL or the decision point. "off" disables the
// analyzer entirely. GET /admin/policy returns the current whole-base
// report. Gate decisions are audited and stamped with trace IDs.
//
// Decisions are cached once, at the front: -cache or -stale-grace places
// one resilience.FrontCache over the router (8192 decisions per shard
// group). A key answers fresh while its decision is younger than -cache;
// when the router answers Indeterminate — open breaker, replicas down,
// dead PIP — a warm key answers with its last conclusive decision while
// that is younger than -stale-grace, marked degraded and audit-logged, and
// a cold key fails closed. Both ages count from evaluation, so stale
// serving fires only with -stale-grace above -cache (pdpd logs at start-up
// when it cannot). -breaker arms per-shard circuit breakers (a dead shard
// group fails fast instead of burning every caller's deadline budget), and
// -admission arms adaptive (AIMD) admission control at ingress, shedding
// excess decision traffic with 503 + Retry-After while the admin plane,
// health probes and metric scrapes are never shed.
//
// Usage:
//
//	pdpd -policy policy.xml [-addr :8080] [-cache 30s]
//	     [-shards N] [-replicas M] [-strategy failover|quorum]
//	     [-policy-lint off|warn|strict]
//	     [-breaker] [-breaker-cooldown 1s]
//	     [-stale-grace 30s] [-admission 256]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/debughttp"
	"repro/internal/ha"
	"repro/internal/pap"
	"repro/internal/pdp"
	"repro/internal/pip"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/xacml"
)

// Trace retention and breaker sensitivity: no deployment or harness has
// needed other values.
const (
	traceSlow        = 250 * time.Millisecond // always keep traces at least this slow
	traceBuffer      = 256                    // kept-trace ring capacity behind /debug/traces
	breakerThreshold = 5                      // consecutive shard failures that open a breaker
)

func main() {
	policyPath := flag.String("policy", "", "policy file (XML or JSON)")
	addr := flag.String("addr", ":8080", "listen address")
	cacheTTL := flag.Duration("cache", 0, "decision cache TTL: a decided key answers fresh from the front cache while its decision is younger than this (0 disables)")
	shards := flag.Int("shards", 1, "shard groups of the consistent-hash cluster")
	replicas := flag.Int("replicas", 1, "replicas per shard group")
	strategy := flag.String("strategy", "failover", "shard replication strategy: failover or quorum")
	dataDir := flag.String("data-dir", "", "durable policy store directory (empty runs in-memory only)")
	snapshotEvery := flag.Int("snapshot-every", 1024, "WAL records between snapshot/compact cycles (persistence mode)")
	traceSample := flag.Float64("trace-sample", 0.01, "decision-trace head-sampling fraction in [0,1]; slow and Indeterminate traces are always kept")
	subjectsPath := flag.String("subjects", "", "subject directory JSON file wired (behind a coalescing cache) as the engines' PIP resolver")
	policyLint := flag.String("policy-lint", "warn", "static policy lint gate on /admin/policy: off, warn, or strict (strict rejects writes introducing blocking findings, fail-closed)")
	chaosFlag := flag.Bool("chaos", false, "expose /admin/chaos fault injection (replica crash/revive/stall) — load/chaos harness use, never production")
	debugAddr := flag.String("debug-addr", "", "optional pprof listen address (profiling stays off unless set)")
	breakerFlag := flag.Bool("breaker", false, "arm per-shard circuit breakers: a shard group observed down fails fast instead of burning per-request deadline budget")
	breakerCooldown := flag.Duration("breaker-cooldown", time.Second, "open-state cooldown before a single half-open probe is admitted")
	staleGrace := flag.Duration("stale-grace", 0, "bounded-staleness degraded mode: answer an Indeterminate with the key's last conclusive decision if it was evaluated less than this ago and no write to its policies came since; fires only above -cache (0 fails closed instead)")
	admissionLimit := flag.Int("admission", 0, "adaptive (AIMD) admission control: initial concurrency limit for decision traffic, shed with 503 + Retry-After beyond it; admin/health/metrics are never shed (0 disables)")
	flag.Parse()

	if *policyPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	start := time.Now()
	root, err := loadPolicy(*policyPath)
	if err != nil {
		log.Fatalf("pdpd: %v", err)
	}
	parseTook := time.Since(start)
	var lg *store.Log
	if *dataDir != "" {
		lg, err = store.Open(*dataDir, store.Options{SnapshotEvery: *snapshotEvery})
		if err != nil {
			log.Fatalf("pdpd: %v", err)
		}
		st := lg.Stats()
		log.Printf("pdpd: recovered %s: %d snapshot entries + %d WAL records (seq %d, %d torn bytes truncated)",
			*dataDir, st.RecoveredSnapshot, st.RecoveredTail, st.LastSeq, st.TruncatedBytes)
	}
	reg := telemetry.NewRegistry()
	reg.RegisterGoGC()
	tracer := trace.NewTracer(trace.Options{
		Sample:        *traceSample,
		SlowThreshold: traceSlow,
		Capacity:      traceBuffer,
	})
	tracer.RegisterMetrics(reg)
	if lg != nil {
		lg.RegisterMetrics(reg)
	}
	var resPolicy *resilience.Policy
	if *breakerFlag {
		resPolicy = &resilience.Policy{
			Breaker: resilience.BreakerConfig{
				Threshold: breakerThreshold,
				Cooldown:  *breakerCooldown,
			},
		}
	}
	var resolver policy.Resolver
	var subjectsTook time.Duration
	if *subjectsPath != "" {
		start := time.Now()
		dir, err := loadSubjects(*subjectsPath)
		if err != nil {
			log.Fatalf("pdpd: %v", err)
		}
		subjectsTook = time.Since(start)
		cache := pip.NewCachedChain("pdpd-pip", 30*time.Second, dir)
		if resPolicy != nil {
			// The PIP chain gets the same protection as the shards: failed
			// lookups are remembered briefly (negative cache) and a dead
			// backend trips a breaker instead of eating deadline budget.
			cache = cache.WithNegativeTTL(2*time.Second).
				WithBreaker(resPolicy.Breaker.Threshold, resPolicy.Breaker.Cooldown)
		}
		cache.RegisterMetrics(reg)
		resolver = cache
		log.Printf("pdpd: %d subjects loaded from %s", dir.Len(), *subjectsPath)
	}
	router, err := buildDecisionPoint(*shards, *replicas, *strategy, resolver, resPolicy, reg)
	if err != nil {
		log.Fatalf("pdpd: %v", err)
	}
	lintMode, err := analysis.ParseMode(*policyLint)
	if err != nil {
		log.Fatalf("pdpd: %v", err)
	}
	adm, err := newAdmin(router, root, lg, lintMode, tracer, audit.NewLog(1024))
	if err != nil {
		log.Fatalf("pdpd: %v", err)
	}
	ms := func(d time.Duration) string { return d.Round(100 * time.Microsecond).String() }
	log.Printf("pdpd: start-up: parse %s, subjects %s, seed %s, root %s, lint %s",
		ms(parseTook), ms(subjectsTook), ms(adm.seedTook), ms(adm.rootTook), ms(adm.lintTook))
	if adm.engine != nil {
		adm.engine.RegisterMetrics(reg)
		adm.gate.RegisterMetrics(reg)
		if sum := adm.engine.Summary(); sum != "clean" {
			log.Printf("pdpd: policy lint (%s): %s", lintMode, sum)
		}
	}
	// The handlers serve the router itself, or the one front cache placed
	// over it.
	decide, decideBatch := pdp.Handler(router), pdp.BatchHandler(router)
	var front *resilience.FrontCache
	if *cacheTTL > 0 || *staleGrace > 0 {
		front = adm.placeFront(*cacheTTL, *staleGrace)
		front.RegisterMetrics(reg)
		decide, decideBatch = pdp.Handler(front), pdp.BatchHandler(front)
	}

	var admission *resilience.Admission
	if *admissionLimit > 0 {
		admission = resilience.NewAdmission(resilience.AdmissionConfig{Initial: *admissionLimit})
		admission.RegisterMetrics(reg)
	}

	mux := http.NewServeMux()
	mux.Handle("/decide", wire.HTTPHandler(decide, wire.WithTracer(tracer)))
	mux.Handle("/decide-batch", wire.HTTPHandler(decideBatch, wire.WithTracer(tracer)))
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/traces", tracer.Handler())
	mux.HandleFunc("/admin/policy", adm.handlePolicy)
	if *chaosFlag {
		mux.Handle("/admin/chaos", &chaosAdmin{router: router})
		log.Printf("pdpd: chaos fault injection enabled on /admin/chaos")
	}
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// The engines cache nothing; CacheHits and CacheEntries count the
		// front cache beside their counters.
		type engineStats struct {
			pdp.Stats
			CacheHits, CacheEntries int64
		}
		type pointStats struct {
			Cluster cluster.Stats
			Engines engineStats
			Shards  []string
			Loads   []int64
			Groups  map[string]ha.Stats
		}
		out := struct {
			Point         pointStats                  `json:"point"`
			Policies      int                         `json:"policies"`
			RefreshErrors int64                       `json:"refresh_errors"`
			Persistence   *store.Stats                `json:"persistence,omitempty"`
			Admission     *resilience.AdmissionStats  `json:"admission,omitempty"`
			Front         *resilience.FrontCacheStats `json:"front,omitempty"`
		}{Point: pointStats{router.Stats(), engineStats{Stats: router.EngineStats()}, router.Shards(), router.ShardLoads(), router.GroupStats()}, Policies: len(adm.store.List()), RefreshErrors: adm.refreshErrs.Load()}
		if front != nil {
			st := front.Stats()
			out.Front = &st
			out.Point.Engines.CacheHits, out.Point.Engines.CacheEntries = st.Hits, int64(st.Entries)
		}
		if lg != nil {
			st := lg.Stats()
			out.Persistence = &st
		}
		if admission != nil {
			st := admission.Stats()
			out.Admission = &st
		}
		if err := json.NewEncoder(w).Encode(out); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	log.Printf("pdpd: serving %s on %s (cache=%v shards=%d replicas=%d strategy=%s data-dir=%q trace-sample=%g)",
		*policyPath, *addr, *cacheTTL, *shards, *replicas, *strategy, *dataDir, *traceSample)
	if resPolicy != nil {
		log.Printf("pdpd: breakers armed (threshold=%d cooldown=%v)", breakerThreshold, *breakerCooldown)
	}
	switch {
	case *staleGrace > *cacheTTL:
		log.Printf("pdpd: stale serving armed (stale-grace=%v from evaluation)", *staleGrace)
	case *staleGrace > 0:
		log.Printf("pdpd: stale serving cannot fire: -stale-grace %v is not above -cache %v, so a fresh hit always answers first", *staleGrace, *cacheTTL)
	}
	var handler http.Handler = mux
	if admission != nil {
		handler = admission.Middleware(admissionPriority, mux)
		log.Printf("pdpd: adaptive admission control armed (initial limit %d)", *admissionLimit)
	}
	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           debughttp.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("pdpd: pprof debug server on %s", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pdpd: debug server: %v", err)
			}
		}()
	}
	server := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGINT/SIGTERM trigger a graceful shutdown: stop accepting
	// connections, drain in-flight requests, then flush and close the
	// durable log so a restart recovers from the snapshot fast path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("pdpd: signal received, shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := server.Shutdown(shutCtx); err != nil {
			log.Printf("pdpd: http shutdown: %v", err)
		}
		if lg != nil {
			if err := lg.Close(); err != nil {
				log.Printf("pdpd: close policy log: %v", err)
			}
		}
	}
}

// admissionPriority classifies ingress for the admission controller: the
// admin plane, health probes and observability scrapes are Critical —
// never shed before decision traffic, because they must stay reachable
// precisely when the daemon is overloaded enough to shed — and everything
// else is sheddable Decision work.
func admissionPriority(r *http.Request) resilience.Priority {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/admin/"), strings.HasPrefix(p, "/debug/"),
		p == "/healthz", p == "/metrics", p == "/stats":
		return resilience.Critical
	}
	return resilience.Decision
}

// buildDecisionPoint assembles the router pdpd serves, whose replica
// handles /admin/chaos injects faults through. A non-nil res arms the
// router's per-shard breakers. Its engines cache no decisions: -cache and
// -stale-grace are applied by admin.placeFront, over the router.
func buildDecisionPoint(shards, replicas int, strategy string, resolver policy.Resolver, res *resilience.Policy, reg *telemetry.Registry) (*cluster.Router, error) {
	var opts []pdp.Option
	if resolver != nil {
		opts = append(opts, pdp.WithResolver(resolver))
	}
	var strat ha.Strategy
	switch strategy {
	case "failover":
		strat = ha.Failover
	case "quorum":
		strat = ha.Quorum
	default:
		return nil, fmt.Errorf("unknown strategy %q (want failover or quorum)", strategy)
	}
	router, err := cluster.New("pdpd", cluster.Config{
		Shards:        shards,
		Replicas:      replicas,
		Strategy:      strat,
		EngineOptions: opts,
		Resilience:    res,
	})
	if err != nil {
		return nil, err
	}
	if reg != nil {
		router.RegisterMetrics(reg)
	}
	return router, nil
}

// admin owns the daemon's Policy Administration Point and pushes its
// updates into the decision point through the delta pipeline.
type admin struct {
	store       *pap.Store
	point       *cluster.Router
	refreshErrs atomic.Int64
	// engine and gate are the incremental static analyzer and its
	// admin-write veto; both nil when -policy-lint=off.
	engine   *analysis.Engine
	gate     *analysis.Gate
	lintMode analysis.Mode
	tracer   *trace.Tracer
	auditLog *audit.Log
	// seedTook, rootTook and lintTook time newAdmin's start-up phases: the
	// seed PutAll, pap.Follow's root install and analysis.GateStore (the
	// lint engine's Install).
	seedTook, rootTook, lintTook time.Duration
}

// newAdmin seeds the store from the loaded policy file (a policy set
// contributes its children and its root shape — ID, combining algorithm,
// target and obligations; a single policy becomes the lone child under
// deny-overrides) and makes the decision point follow the store
// (pap.Follow): the assembled root installs once, and every later write
// reaches the point through the delta path. Root
// children are administered by ID, so the assembled root holds them in ID
// order and duplicate child IDs are rejected (as root validation always
// has).
//
// With a durable log the store hydrates from the recovered snapshot+WAL
// state first, and the file seeds only policies the store has never seen:
// live administration — updated versions and deletes alike — wins over
// the seed file across restarts. The seeds go in as one PutAll: one WAL
// record group behind one fsync. The log is attached as the store's
// backend during bootstrap, so the seed write and every /admin/policy
// write after it are committed to the WAL before they are acknowledged. A
// crash during the seed write may leave a prefix of it durable; the next
// start seeds the rest.
func newAdmin(point *cluster.Router, root policy.Evaluable, lg *store.Log, lint analysis.Mode, tracer *trace.Tracer, auditLog *audit.Log) (*admin, error) {
	a := &admin{
		store: pap.NewStore("pdpd"), point: point,
		lintMode: lint, tracer: tracer, auditLog: auditLog,
	}
	if lg != nil {
		if err := lg.Bootstrap(a.store); err != nil {
			return nil, err
		}
	}
	shape := pap.Root{ID: "pdpd-root", Combining: policy.DenyOverrides}
	children := []policy.Evaluable{root}
	if v, ok := root.(*policy.PolicySet); ok {
		shape = pap.Root{ID: v.ID, Combining: v.Combining, Target: v.Target, Obligations: v.Obligations}
		children = v.Children
	}
	seeds := make([]policy.Evaluable, 0, len(children))
	seen := make(map[string]struct{}, len(children))
	for _, ch := range children {
		id := ch.EntityID()
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("policy set %s: duplicate child ID %q", shape.ID, id)
		}
		seen[id] = struct{}{}
		if a.store.History(id) == 0 { // recovered state supersedes the seed file
			seeds = append(seeds, ch)
		}
	}
	start := time.Now()
	if err := a.store.PutAll(seeds); err != nil {
		return nil, err
	}
	a.seedTook = time.Since(start)
	if set, ok := root.(*policy.PolicySet); ok && !set.ChildrenSortedByID() {
		log.Printf("pdpd: root %s children re-ordered by policy ID for live administration; order-dependent combining (e.g. first-applicable) may decide differently than the file order", set.ID)
	}
	start = time.Now()
	// A failed refresh is counted and logged: the point may be serving
	// stale policy, and that must be observable.
	err := pap.Follow(point, a.store, shape, func(err error) {
		a.refreshErrs.Add(1)
		log.Printf("pdpd: %v", err)
	})
	if err != nil {
		return nil, err
	}
	a.rootTook = time.Since(start)
	start = time.Now()
	a.engine, a.gate, err = analysis.GateStore(a.store, analysis.Config{RootCombining: shape.Combining}, lint)
	if err != nil {
		return nil, err
	}
	a.lintTook = time.Since(start)
	return a, nil
}

// placeFront places the one front cache over the point: fresh within ttl,
// stale within grace, 8192 decisions per shard group. Every degraded serve
// is audited with the outage it papered over (the replaced
// Indeterminate's error), the cache key and the age. The audit ring is
// shared with the admin plane, so one query shows the policy writes and
// the brownouts they rode through.
func (a *admin) placeFront(ttl, grace time.Duration) *resilience.FrontCache {
	front := resilience.NewFrontCache(a.point, ttl, &resilience.Policy{StaleGrace: grace}, 8192*len(a.point.Shards()))
	// Retire the cached decisions each write can affect once it is in the
	// point (or failed half-way): a decision dispatched before then may
	// have been evaluated against the old base and must never be served,
	// fresh or stale. Registered after newAdmin's Follow, so it runs after
	// the write reaches the router.
	a.store.Watch(func(u pap.Update) { front.InvalidateChange(u.Previous, u.Policy) })
	front.SetAudit(func(key string, age time.Duration, cause error) {
		a.auditLog.Record(audit.Event{
			Time:      time.Now(),
			Component: "pdpd/resilience",
			Subject:   fmt.Sprint(cause),
			Resource:  key,
			Action:    "serve-stale",
			By:        "last-known-good",
			Latency:   age,
		})
	})
	return front
}

// writeResult is the admin-plane response body: the stored version on
// success, the gate error on rejection, and — whenever the lint gate is
// on — the findings this write introduces plus the trace ID that stamps
// the audit event and the decision trace.
type writeResult struct {
	ID       string             `json:"id"`
	Version  int                `json:"version,omitempty"`
	Error    string             `json:"error,omitempty"`
	Lint     string             `json:"lint,omitempty"`
	Findings []analysis.Finding `json:"findings,omitempty"`
	TraceID  string             `json:"trace_id,omitempty"`
}

// audit records one admin-plane write outcome in the audit log.
func (a *admin) audit(action, id string, decision policy.Decision, traceID string, start time.Time) {
	a.auditLog.Record(audit.Event{
		Time:      time.Now(),
		Component: "pdpd/admin",
		Subject:   "admin",
		Resource:  id,
		Action:    action,
		Decision:  decision,
		By:        "policy-lint:" + a.lintMode.String(),
		Latency:   time.Since(start),
		TraceID:   traceID,
	})
}

// handlePolicy serves the live-administration endpoint. Writes run the
// static lint gate: findings the write would introduce come back in the
// response body, and in strict mode a write introducing blocking findings
// is rejected with 409 before it touches the store.
func (a *admin) handlePolicy(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ctx, span := a.tracer.StartRoot(r.Context(), "admin/policy")
	defer span.End()
	traceID := trace.CurrentID(ctx)
	span.SetAttr("method", r.Method)
	respond := func(status int, res writeResult) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(res)
	}
	switch r.Method {
	case http.MethodGet:
		// The current whole-base report. The engine keeps the finding
		// set current across admin writes, but serving it renders and
		// sorts every standing finding: O(findings log findings).
		if a.engine == nil {
			http.Error(w, "policy lint is off", http.StatusNotFound)
			return
		}
		rep := a.engine.Report()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Mode     string             `json:"mode"`
			Summary  string             `json:"summary"`
			Findings []analysis.Finding `json:"findings"`
		}{a.lintMode.String(), rep.Summary(), rep.Findings})
	case http.MethodPost, http.MethodPut:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		e, err := parsePolicy(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id := e.EntityID()
		span.SetAttr("policy", id)
		// Preview the findings this write introduces for the response
		// body; enforcement happens in the pre-commit hook under the
		// store's write serialisation, so a race cannot sneak a
		// conflicting write past the gate, and a rejection answers with
		// the findings the gate judged it on.
		var findings []analysis.Finding
		if a.engine != nil {
			findings = a.engine.Preview(id, e).Findings
		}
		version, err := a.store.Put(e)
		if err != nil {
			span.Keep()
			var rej *analysis.RejectedError
			if errors.As(err, &rej) {
				a.audit("put", id, policy.DecisionDeny, traceID, start)
				respond(http.StatusConflict, writeResult{
					ID: id, Error: err.Error(),
					Lint: a.lintMode.String(), Findings: rej.Report.Findings, TraceID: traceID,
				})
				return
			}
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		a.audit("put", id, policy.DecisionPermit, traceID, start)
		res := writeResult{ID: id, Version: version, TraceID: traceID}
		if a.engine != nil {
			res.Lint = a.lintMode.String()
			res.Findings = findings
		}
		respond(http.StatusOK, res)
	case http.MethodDelete:
		id := r.URL.Query().Get("id")
		if id == "" {
			http.Error(w, "missing id parameter", http.StatusBadRequest)
			return
		}
		span.SetAttr("policy", id)
		if err := a.store.Delete(id); err != nil {
			span.Keep()
			status := http.StatusInternalServerError
			if errors.Is(err, pap.ErrNotFound) {
				status = http.StatusNotFound
			}
			http.Error(w, err.Error(), status)
			return
		}
		a.audit("delete", id, policy.DecisionPermit, traceID, start)
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// parsePolicy decodes an XACML policy document, sniffing XML vs JSON.
func parsePolicy(body []byte) (policy.Evaluable, error) {
	if bytes.HasPrefix(bytes.TrimSpace(body), []byte("<")) {
		return xacml.UnmarshalXML(body)
	}
	return xacml.UnmarshalJSON(body)
}

// loadSubjects reads a JSON subject-directory file — an array of
// {id, domain, roles, groups, clearance} objects — into a pip.Directory.
func loadSubjects(path string) (*pip.Directory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []struct {
		ID        string   `json:"id"`
		Domain    string   `json:"domain"`
		Roles     []string `json:"roles"`
		Groups    []string `json:"groups"`
		Clearance int64    `json:"clearance"`
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	dir := pip.NewDirectory("pdpd-subjects")
	for _, e := range entries {
		if e.ID == "" {
			return nil, fmt.Errorf("%s: subject entry without an id", path)
		}
		dir.AddSubject(pip.Subject{
			ID:        e.ID,
			Domain:    e.Domain,
			Roles:     e.Roles,
			Groups:    e.Groups,
			Clearance: e.Clearance,
		})
	}
	return dir, nil
}

func loadPolicy(path string) (policy.Evaluable, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".json") {
		return xacml.UnmarshalJSON(data)
	}
	return xacml.UnmarshalXML(data)
}
