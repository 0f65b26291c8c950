// Package repro is a reproduction of "Architecting Dependable Access
// Control Systems for Multi-Domain Computing Environments" (Machulak,
// Parkin, van Moorsel; DSN 2008 / Newcastle CS-TR-1156).
//
// The implementation lives under internal/ (the README's package map is
// the system inventory); runnable examples under examples/; command-line
// tools under cmd/. The root package holds the benchmark harness
// (bench_test.go) that regenerates every experiment table cmd/experiments
// prints.
//
// Decision-making is layered to meet the paper's Section 3 scalability
// challenge at three scales: internal/pdp is the single evaluation engine
// (compiled decision program, decision cache, batch/scatter paths);
// internal/ha replicates an engine for dependability (failover and quorum
// ensembles); internal/cluster shards the policy base across many
// replicated engines behind one consistent-hash router, turning the
// decision point into a horizontally scalable fleet without changing the
// enforcement-point contract. Within one engine the decision hot path is lock-free: the
// root/program/epoch triple is an immutable RCU snapshot behind an atomic
// pointer, the decision cache is striped into per-mutex shards keyed by
// the request's memoised key hash (a hit is one shard lock and zero
// allocations), and stats are padded atomic stripes aggregated on read —
// ensembles and the router add no per-decision critical section on top.
// The BenchmarkParallel* suite measures the resulting multi-core scaling.
//
// Policy administration is live (the paper's Section 3.2 manageability
// argument): a pap.Store change notifies watchers in commit order, each
// update carrying the changed policy as a self-contained delta, and
// pap.Follow feeds each one to the decision point's delta pipeline
// (pdp.Engine.ApplyUpdate, cluster.Router.ApplyUpdate), which patches the
// one affected root child in place. Invalidation is targeted —
// only cached decisions for the resource keys the changed child constrains
// are dropped (catch-all children fall back to a full flush), and a
// cluster routes each delta to just the owning shard group, so the other
// N-1 shards' caches stay warm through policy churn. Any delta sequence
// yields decisions identical to a from-scratch rebuild;
// BenchmarkPolicyChurn quantifies the win over the rebuild pipeline.
//
// The policy base itself is durable (Section 3.3 dependability):
// internal/store backs the pap.Store with a CRC-framed, fsynced
// write-ahead log whose records are the same pap.Update deltas, plus
// periodic snapshots with WAL compaction. Writes are committed before
// they are visible or acknowledged; crash recovery loads the newest
// snapshot, truncates a torn tail (never applying a partial record),
// replays the surviving tail into the store, and installs the recovered
// base as one root — so a pdpd restart, a new shard, or a rehydrated
// federation domain serves
// exactly the acknowledged pre-crash decisions. BenchmarkWALAppend and
// BenchmarkRecovery measure the write and restart paths.
//
// Every decision is context-bounded. The paper's architecture makes
// authorisation an autonomous service reached over a network, so each
// decision is an RPC that can hang; context.Context therefore threads
// through every layer of the pipeline — engine, enforcement points,
// ensembles, cluster scatter, federation flows and the wire transport.
// Deadline expiry or cancellation surfaces as Indeterminate carrying the
// cause, which deny-biased enforcement refuses: running out of time fails
// closed, never open, and never hangs. The remaining deadline budget
// travels in the envelope's signed header block (and as an HTTP header),
// so a downstream PDP arms the same deadline the caller is counting down;
// on the simulated network the budget bounds the call's virtual clock
// across every hop of a multi-hop flow. Attribute resolution is a live,
// cancelable part of evaluation: the ctx-aware policy.Resolver contract
// lets engines fetch missing attributes mid-evaluation through pip
// provider chains, with per-request memoisation (pip.RequestResolver) and
// concurrent-miss coalescing (pip.Cache), so requests need not arrive
// with attributes pre-populated. internal/cluster's
// TestDeadlineShedsOnlySlowShard pins what deadlines buy under an injected
// slow shard: only that shard's requests fail closed.
//
// The running system is observable end to end. internal/trace gives every
// decision a trace: spans follow the request through enforcement, the
// remote decision client, the wire, the serving hop, engine evaluation
// and PIP fetches, and the trace context crosses domain boundaries inside
// the envelope — the IDs in the signed canonical block, the remote hop's
// spans returned unsigned and re-homed onto the caller's trace — so a
// multi-hop federated decision yields one stitched trace on
// /debug/traces. Retention is head-sampled with always-on capture of
// slow and Indeterminate decisions. internal/telemetry is a lock-free
// metrics registry (atomic counters, gauges, log-bucketed histograms)
// with Prometheus text exposition on /metrics; instrumented packages
// register pull-model collectors that read their existing atomic stats
// only at scrape time, so the decision hot path stays alloc-free. The
// bench module's traced pass reports tracing overhead end to end.
//
// The system is exercised the way it will be operated. internal/chaos
// composes the repo's fault seams (replica crash/stall, partitions, kill
// -9 with WAL recovery, clock skew) into timed schedules whose invariants
// distinguish mid-fault fail-closed behaviour (tolerated) from lost
// acknowledged writes or changed decisions (violations). cmd/loadd runs
// such a schedule against a real pdpd cluster under one kernel-paced
// open-loop load and fails on any failed decision outside a declared
// fault window; throughput and latency come from the bench module.
// .github/bench-gate.sh gates CI on it: alternating pairs of short bench
// runs on the change and its base revision, compared within the
// BENCHMARK.json bounds. Each BENCH_PR<N>.json records one PR's pairs.
package repro
