package repro

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/pap"
	"repro/internal/pdp"
	"repro/internal/pep"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xacml"
)

// --- experiment benchmarks: one per table cmd/experiments prints ---
//
// Each benchmark runs the full deterministic experiment per iteration, so
// `go test -bench=E<k>` regenerates exactly the table
// `go run ./cmd/experiments E<k>` prints (printed once under -v via b.Log).

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var rows int
	for i := 0; i < b.N; i++ {
		table, err := exp.Run()
		if err != nil {
			b.Fatal(err)
		}
		rows = len(table.Rows())
		if i == 0 && testing.Verbose() {
			b.Log("\n" + table.String())
		}
	}
	b.ReportMetric(float64(rows), "table-rows")
}

func BenchmarkE1_VirtualOrganisation(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2_PushCapability(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3_PullPolicyIssuing(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4_XACMLDataFlow(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkE5_Syndication(b *testing.B)         { benchExperiment(b, "E5") }
func BenchmarkE6_Combining(b *testing.B)           { benchExperiment(b, "E6") }
func BenchmarkE7_Caching(b *testing.B)             { benchExperiment(b, "E7") }
func BenchmarkE8_SecurityOverhead(b *testing.B)    { benchExperiment(b, "E8") }
func BenchmarkE9_DependablePDP(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10_ConflictResolution(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11_TrustNegotiation(b *testing.B)   { benchExperiment(b, "E11") }
func BenchmarkE12_Delegation(b *testing.B)         { benchExperiment(b, "E12") }
func BenchmarkE14_ChineseWall(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15_Heterogeneity(b *testing.B)      { benchExperiment(b, "E15") }
func BenchmarkE16_Discovery(b *testing.B)          { benchExperiment(b, "E16") }

// --- micro-benchmarks of the hot paths behind the experiments ---

func scalabilityFixture(b *testing.B, n int) (*pdp.Engine, []*policy.Request) {
	b.Helper()
	gen := workload.NewGenerator(workload.Config{Users: 100, Resources: n, Roles: 10, Seed: 1})
	engine := pdp.New("bench", pdp.WithResolver(gen.Directory("idp")))
	if err := engine.SetRoot(gen.PolicyBase("base")); err != nil {
		b.Fatal(err)
	}
	reqs := make([]*policy.Request, 256)
	for i := range reqs {
		reqs[i] = gen.NextRequest()
	}
	return engine, reqs
}

// decideOne decides one request on the engine as a one-position scatter
// over stack arrays, the way Engine.DecideAt does: a call on the concrete
// type, so the request and result cells do not escape to the heap.
func decideOne(ctx context.Context, e *pdp.Engine, req *policy.Request, at time.Time) policy.Result {
	var out [1]policy.Result
	e.DecideScatterAt(ctx, []*policy.Request{req}, nil, at, nil, out[:])
	return out[0]
}

func BenchmarkPDPDecide(b *testing.B) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("policies=%d", n), func(b *testing.B) {
			engine, reqs := scalabilityFixture(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decideOne(context.Background(), engine, reqs[i%len(reqs)], at)
			}
		})
	}
}

// clusterFixture builds a sharded cluster over an internal/workload
// population, the fleet-scale counterpart of scalabilityFixture.
func clusterFixture(b *testing.B, shards int) (*cluster.Router, []*policy.Request) {
	b.Helper()
	gen := workload.NewGenerator(workload.Config{Users: 100, Resources: 2000, Roles: 10, Seed: 1})
	router, err := cluster.New("bench", cluster.Config{
		Shards:        shards,
		EngineOptions: []pdp.Option{pdp.WithResolver(gen.Directory("idp"))},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := router.SetRoot(gen.PolicyBase("base")); err != nil {
		b.Fatal(err)
	}
	return router, gen.Requests(1024)
}

// fullConfig is the production configuration cmd/pdpd serves with -cache:
// one TTL decision cache at the front, over the router's uncached,
// compiled engines (8192 decisions per shard group, as pdpd sizes it).
func fullConfig(router *cluster.Router) *resilience.FrontCache {
	return resilience.NewFrontCache(router, time.Hour, &resilience.Policy{}, 8192*len(router.Shards()))
}

// BenchmarkClusterDecide routes one decision at a time through clusters of
// growing shard counts. config=scan decides on the router, so every op is
// a compiled miss against the shard's slice of the policy base. config=full
// decides through the production configuration (a front decision cache
// over the router), the baseline BenchmarkClusterDecideBatch compares
// against.
func BenchmarkClusterDecide(b *testing.B) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, cfg := range []struct {
		name  string
		front bool
	}{{"scan", false}, {"full", true}} {
		for _, shards := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("config=%s/shards=%d", cfg.name, shards), func(b *testing.B) {
				router, reqs := clusterFixture(b, shards)
				var d policy.Decider = router
				if cfg.front {
					d = fullConfig(router)
				}
				for _, req := range reqs {
					policy.Decide(context.Background(), d, req, at) // warm the decision cache
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					policy.Decide(context.Background(), d, reqs[i%len(reqs)], at)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
			})
		}
	}
}

// BenchmarkClusterDecideBatch evaluates the same workload in 256-request
// batches on the production configuration: the front cache sweeps the
// batch once, and what it does not hold groups by owning shard, each group
// running in one engine pass. Per-decision time should beat the
// config=full rows of BenchmarkClusterDecide.
func BenchmarkClusterDecideBatch(b *testing.B) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	const batch = 256
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("config=full/shards=%d", shards), func(b *testing.B) {
			router, reqs := clusterFixture(b, shards)
			front := fullConfig(router)
			policy.DecideBatch(context.Background(), front, reqs, at) // warm the decision cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i * batch) % (len(reqs) - batch + 1)
				policy.DecideBatch(context.Background(), front, reqs[off:off+batch], at)
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "decisions/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/decision")
		})
	}
}

// BenchmarkPolicyChurn measures the hot path under sustained policy
// writes on the production 4-shard cluster: one policy is rewritten every
// 64 decisions. The full-rebuild pipeline reinstalls the whole root per
// write, revalidating O(policies), and retires every decision the front
// cache holds (the change is the whole root, a catch-all); the
// incremental pipeline (Router.ApplyUpdate) routes a delta to the owning
// shard group and then, as pdpd's store watcher does, retires only the
// decisions the policy's previous and new versions constrain, so the
// rest keep serving hits. Compare the decisions/s and cache-hit% metrics
// across the two sub-benchmarks.
func BenchmarkPolicyChurn(b *testing.B) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	const (
		writeEvery = 64
		resources  = 2000 // matches clusterFixture's generator
		roles      = 10
	)
	churnChild := func(w int) *policy.Policy {
		return workload.ResourcePolicy((w*61)%resources, roles)
	}
	for _, mode := range []string{"full-rebuild", "incremental"} {
		b.Run(mode, func(b *testing.B) {
			router, reqs := clusterFixture(b, 4)
			front := fullConfig(router)
			base := router.Root().(*policy.PolicySet)
			live := make(map[string]policy.Evaluable, len(base.Children))
			for _, ch := range base.Children {
				live[ch.EntityID()] = ch
			}
			for _, req := range reqs {
				policy.Decide(context.Background(), front, req, at) // warm the decision cache
			}
			before, beforeHits := router.EngineStats(), front.Stats().Hits
			writes := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%writeEvery == writeEvery-1 {
					idx := (writes * 61) % resources
					child := churnChild(writes)
					writes++
					if mode == "incremental" {
						if err := router.ApplyUpdate(pdp.Update{ID: child.ID, Child: child}); err != nil {
							b.Fatal(err)
						}
						front.InvalidateChange(live[child.ID], child)
						live[child.ID] = child
					} else {
						children := make([]policy.Evaluable, len(base.Children))
						copy(children, base.Children)
						children[idx] = child
						root := &policy.PolicySet{ID: base.ID, Combining: base.Combining, Children: children}
						if err := router.SetRoot(root); err != nil {
							b.Fatal(err)
						}
						front.InvalidateChange(nil, root)
					}
				}
				policy.Decide(context.Background(), front, reqs[i%len(reqs)], at)
			}
			b.StopTimer()
			hits := front.Stats().Hits - beforeHits
			misses := router.EngineStats().Evaluations - before.Evaluations
			if hits+misses > 0 {
				b.ReportMetric(100*float64(hits)/float64(hits+misses), "cache-hit%")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
		})
	}
}

func BenchmarkPEPEnforceCached(b *testing.B) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	engine, reqs := scalabilityFixture(b, 100)
	front := resilience.NewFrontCache(engine, time.Hour, &resilience.Policy{}, 8192)
	enf := pep.NewEnforcer("bench", front, pep.WithClock(func() time.Time { return at }))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enf.EnforceAt(context.Background(), reqs[i%len(reqs)], at)
	}
}

func BenchmarkXACMLCodec(b *testing.B) {
	req := policy.NewAccessRequest("alice", "rec-7", "read").
		Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String("doctor")).
		Add(policy.CategorySubject, policy.AttrClearance, policy.Integer(3)).
		Add(policy.CategoryResource, policy.AttrResourceType, policy.String("patient-record"))
	b.Run("request-xml", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			data, err := xacml.MarshalRequestXML(req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := xacml.UnmarshalRequestXML(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	// What the daemon pays per request: decoding the cold workload
	// request the BenchmarkServe* envelopes carry.
	b.Run("request-xml-decode", func(b *testing.B) {
		data, err := xacml.MarshalRequestXML(policy.NewAccessRequest(workload.UserID(1000), workload.ResourceID(100), "read"))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xacml.UnmarshalRequestXML(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("request-json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			data, err := xacml.MarshalRequestJSON(req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := xacml.UnmarshalRequestJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// permitAll is a decision provider that does no work, so the BenchmarkServe*
// benchmarks time the message codecs alone.
type permitAll struct{}

func (permitAll) DecideScatterAt(_ context.Context, reqs []*policy.Request, positions []int, _ time.Time, _ policy.Resolver, out []policy.Result) {
	for i := range reqs {
		if positions == nil || slices.Contains(positions, i) {
			out[i] = policy.Result{Decision: policy.DecisionPermit, By: "res-policy-7/permit-owner"}
		}
	}
}

// serveEnvelope encodes the request envelope a PEP would post for n cold
// workload requests: one context for /decide, a batch frame otherwise.
func serveEnvelope(b *testing.B, n int) []byte {
	b.Helper()
	docs := make([][]byte, n)
	for i := range docs {
		var err error
		docs[i], err = xacml.MarshalRequestXML(policy.NewAccessRequest(
			workload.UserID(1000+i), workload.ResourceID(100+i), "read"))
		if err != nil {
			b.Fatal(err)
		}
	}
	env := &wire.Envelope{
		MessageID: "bench-1", From: "pep", To: "pdpd", Action: "pdp:decide",
		Timestamp: time.Unix(1700000000, 0).UTC(), Body: docs[0],
	}
	if n > 1 {
		frame, err := wire.EncodeBodies(docs)
		if err != nil {
			b.Fatal(err)
		}
		env.Action, env.Body = "pdp:decide-batch", frame
	}
	data, err := env.EncodeXML()
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// benchServe is the daemon's share of the codecs for one exchange: decode
// the posted envelope, run the handler over a provider that does nothing,
// encode the reply envelope. No HTTP, no engine.
func benchServe(b *testing.B, h wire.Handler, posted []byte) {
	b.ReportAllocs()
	b.SetBytes(int64(len(posted)))
	b.ReportMetric(float64(runtime.NumCPU()), "nproc")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		env, err := wire.DecodeXML(posted)
		if err != nil {
			b.Fatal(err)
		}
		reply, err := h(ctx, &wire.Call{}, env)
		if err != nil {
			b.Fatal(err)
		}
		reply.From, reply.To, reply.MessageID = env.To, env.From, env.MessageID+"-reply"
		if _, err := reply.EncodeXML(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeDecide is the server-side codec pass of one /decide.
func BenchmarkServeDecide(b *testing.B) {
	benchServe(b, pdp.Handler(permitAll{}), serveEnvelope(b, 1))
}

// BenchmarkServeDecideBatch is the server-side codec pass of one
// 64-request /decide-batch envelope, the bench's batch.closed unit.
func BenchmarkServeDecideBatch(b *testing.B) {
	benchServe(b, pdp.BatchHandler(permitAll{}), serveEnvelope(b, 64))
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0x42
	}
	return len(p), nil
}

func BenchmarkEnvelopeProtect(b *testing.B) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	later := epoch.AddDate(1, 0, 0)
	root, err := pki.NewRootAuthority("ca", zeroReader{}, epoch, later)
	if err != nil {
		b.Fatal(err)
	}
	trust := pki.NewTrustStore()
	trust.AddRoot(root.Certificate())
	key, err := pki.GenerateKeyPair(zeroReader{})
	if err != nil {
		b.Fatal(err)
	}
	cert := root.Issue("node", key.Public, epoch, later, false)
	sec := wire.NewSecurity(key, cert, trust)
	sec.AddPeer(cert)
	if err := sec.EstablishSharedKey("node"); err != nil {
		b.Fatal(err)
	}
	body := []byte(`<Request><Attributes Category="subject">...</Attributes></Request>`)
	for _, level := range []wire.Protection{wire.Plain, wire.Signed, wire.SignedEncrypted} {
		b.Run(level.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env := &wire.Envelope{
					MessageID: fmt.Sprintf("m-%d", i),
					From:      "node", To: "node", Action: "pdp:decide",
					Timestamp: epoch, Body: append([]byte(nil), body...),
				}
				if err := sec.Protect(env, level); err != nil {
					b.Fatal(err)
				}
				if err := sec.Verify(env, level, epoch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALAppend measures the durable policy store's write path: every
// acknowledged append is fsynced, and concurrent writers serialise on the
// log, so each width runs at the one-fsync-per-append floor and
// records/fsync reads 1.0. Batching belongs to the caller: a multi-update
// Append (pap.Store.PutAll) puts many records behind one fsync.
func BenchmarkWALAppend(b *testing.B) {
	for _, writers := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("writers-%d", writers), func(b *testing.B) {
			lg, err := store.Open(b.TempDir(), store.Options{SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer lg.Close()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						p := workload.ResourcePolicy(int(i), 4)
						if err := lg.Append(pap.Update{ID: p.EntityID(), Version: 1, Policy: p}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			st := lg.Stats()
			if st.Fsyncs > 0 {
				b.ReportMetric(float64(st.Appends)/float64(st.Fsyncs), "records/fsync")
			}
		})
	}
}

// BenchmarkRecovery measures cold restart (store.Open, Bootstrap into a
// fresh store, and pap.Follow installing it into a fresh engine) against
// WAL length, with snapshots disabled (recovery
// replays the whole history) and enabled (recovery is bounded by the
// snapshot interval) — the restart half of the durability design.
func BenchmarkRecovery(b *testing.B) {
	for _, tc := range []struct {
		name   string
		writes int
		opts   store.Options
	}{
		{"wal-256/no-snapshot", 256, store.Options{SnapshotEvery: -1}},
		{"wal-2048/no-snapshot", 2048, store.Options{SnapshotEvery: -1}},
		{"wal-2048/snapshot-256", 2048, store.Options{SnapshotEvery: 256}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dir := b.TempDir()
			lg, err := store.Open(dir, tc.opts)
			if err != nil {
				b.Fatal(err)
			}
			s := pap.NewStore("bench")
			if err := lg.Bootstrap(s); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < tc.writes; i++ {
				if _, err := s.Put(workload.ResourcePolicy(i%200, 4)); err != nil {
					b.Fatal(err)
				}
			}
			// Crash, not Close: a graceful close would compact the tail
			// into a snapshot, and this benchmark wants the crash shape
			// of the directory — Crash in the loop keeps that shape
			// identical across iterations too.
			if err := lg.Crash(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rl, err := store.Open(dir, tc.opts)
				if err != nil {
					b.Fatal(err)
				}
				rs := pap.NewStore("recovered")
				engine := pdp.New("recovered")
				if err := rl.Bootstrap(rs); err != nil {
					b.Fatal(err)
				}
				if err := pap.Follow(engine, rs, pap.Root{ID: "root", Combining: policy.DenyOverrides}, nil); err != nil {
					b.Fatal(err)
				}
				st := rl.Stats()
				b.ReportMetric(float64(st.RecoveredSnapshot+st.RecoveredTail), "records")
				if err := rl.Crash(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// parallelSeed hands each RunParallel goroutine a distinct starting offset
// into the shared request slice, so concurrent workers spread across cache
// shards instead of marching over the same keys in lockstep.
var parallelSeed atomic.Int64

// BenchmarkParallelDecide measures the lock-free decision hot path under
// b.RunParallel (run with -cpu 1,4,16). hit is the production
// configuration (a warmed front decision cache over the engine): one
// cache-stripe lock per op, so throughput should scale with procs instead
// of serializing on a cache-wide mutex. miss decides on the engine, so
// every op runs the compiled decision program — the evaluation path, also
// free of engine-wide locks.
func BenchmarkParallelDecide(b *testing.B) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	fixture := func(b *testing.B, mode string) (func(*policy.Request), []*policy.Request) {
		b.Helper()
		gen := workload.NewGenerator(workload.Config{Users: 100, Resources: 1000, Roles: 10, Seed: 7})
		engine := pdp.New("parallel", pdp.WithResolver(gen.Directory("idp")))
		if err := engine.SetRoot(gen.PolicyBase("base")); err != nil {
			b.Fatal(err)
		}
		decide := func(req *policy.Request) { decideOne(context.Background(), engine, req, at) }
		if mode == "hit" {
			front := resilience.NewFrontCache(engine, time.Hour, &resilience.Policy{}, 1<<16)
			decide = func(req *policy.Request) { policy.Decide(context.Background(), front, req, at) }
		}
		return decide, gen.Requests(1024)
	}
	for _, mode := range []string{"hit", "miss"} {
		b.Run(mode, func(b *testing.B) {
			decide, reqs := fixture(b, mode)
			for _, req := range reqs {
				decide(req) // warm the cache and key memos
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(parallelSeed.Add(7919))
				for pb.Next() {
					decide(reqs[i%len(reqs)])
					i++
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
		})
	}
}

// missScaleFixtures caches the BenchmarkParallelMissScale fixtures per
// policy count: generating and compiling a 100k-policy base dwarfs the
// measurement, and -cpu variants re-enter the sub-benchmark body.
var missScaleFixtures sync.Map

type missScaleFixture struct {
	root     policy.Evaluable
	resolver policy.Resolver
	engine   *pdp.Engine
	reqs     []*policy.Request
}

func missScaleFor(b *testing.B, n int) *missScaleFixture {
	b.Helper()
	if v, ok := missScaleFixtures.Load(n); ok {
		return v.(*missScaleFixture)
	}
	gen := workload.NewGenerator(workload.Config{Users: 100, Resources: n, Roles: 10, Seed: 7})
	f := &missScaleFixture{root: gen.PolicyBase("base"), resolver: gen.Directory("idp"), reqs: gen.Requests(1024)}
	f.engine = pdp.New("miss-compiled", pdp.WithResolver(f.resolver))
	if err := f.engine.SetRoot(f.root); err != nil {
		b.Fatal(err)
	}
	missScaleFixtures.Store(n, f)
	return f
}

// BenchmarkParallelMissScale measures the uncached decision path against
// policy-base size, one sub-benchmark per evaluation path: the compiled
// decision program (production default) and the plain tree-walking
// interpreter scanning every child. The compiled-vs-scan ratio at a given
// size is the payoff of compilation on the miss path.
func BenchmarkParallelMissScale(b *testing.B) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	ctx := context.Background()
	for _, n := range []int{1000, 10000, 100000} {
		for _, path := range []string{"compiled", "scan"} {
			b.Run(fmt.Sprintf("policies=%d/path=%s", n, path), func(b *testing.B) {
				f := missScaleFor(b, n)
				decide := func(req *policy.Request) { decideOne(ctx, f.engine, req, at) }
				if path == "scan" {
					decide = func(req *policy.Request) {
						ec := policy.AcquireContext(ctx, req, at).WithResolver(f.resolver)
						f.root.Evaluate(ec)
						policy.ReleaseContext(ec)
					}
				}
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := int(parallelSeed.Add(7919))
					for pb.Next() {
						decide(f.reqs[i%len(f.reqs)])
						i++
					}
				})
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
			})
		}
	}
}

// BenchmarkParallelClusterDecide routes the parallel workload through the
// production configuration, a front decision cache over a 4-shard cluster
// router (run with -cpu 1,4,16): the cache is striped, the router's read
// lock is shared and every engine below it is lock-free, so the fleet path
// should scale alongside the single engine.
func BenchmarkParallelClusterDecide(b *testing.B) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	router, reqs := clusterFixture(b, 4)
	front := fullConfig(router)
	for _, req := range reqs {
		policy.Decide(context.Background(), front, req, at) // warm the decision cache
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(parallelSeed.Add(7919))
		for pb.Next() {
			policy.Decide(context.Background(), front, reqs[i%len(reqs)], at)
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
}
