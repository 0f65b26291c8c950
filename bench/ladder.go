package main

// ladder.go is the traced pass's in-process half. The benchmark may not
// instrument the program, so layers are measured from outside: one
// goroutine replays the head of the workload's request stream through
// successive rungs, each built with the options cmd/pdpd gives the
// deployment under test, and records a span around every call into a
// layer's public function. A layer's self time is its rung's median minus
// the medians of the rungs beneath it.
//
// Every import of the program for the ladder lives here. The allow-list:
//
//	xacml.MarshalRequestXML, UnmarshalRequestXML, MarshalResponseXML, UnmarshalResponseXML
//	wire.Envelope.EncodeXML, wire.DecodeXML, wire.EncodeBodies, wire.DecodeBodies
//	wire.HTTPHandler, pdp.Handler, pdp.BatchHandler
//	resilience.NewAdmission, Admission.Middleware
//	cluster.New, Router.SetRoot, Router.Decide, Router.DecideBatch, Router.ApplyUpdate
//	ha.NewFailable, ha.NewEnsemble, Ensemble.DecideAt, Ensemble.DecideBatchAt
//	pdp.New, pdp.WithDecisionCache, pdp.WithResolver, Engine.SetRoot, Engine.Decide, Engine.DecideBatch
//	pip.NewDirectory, Directory.AddSubject, pip.NewCachedChain, Cache.WithNegativeTTL, Cache.WithBreaker, Cache.ResolveAttribute
//	pap.NewStore, Store.Put, Store.SetBackend, store.Open, store.NewMemory, Log.Close
//	analysis.NewEngine, Engine.Install, analysis.NewGate, Gate.Check
//
// so an API-changing PR knows exactly what a preceding benchmark issue
// must adapt.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/ha"
	"repro/internal/pap"
	"repro/internal/pdp"
	"repro/internal/pip"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/xacml"
)

// rung is one measured call site of the ladder.
type rung struct {
	Name string `json:"name"`
	// Parent names the rung whose call contains this layer on the real
	// path. Rungs are replayed one after the other, so a child span does
	// not lie inside its parent's interval: parent plus request id say
	// which span caused it.
	Parent string  `json:"parent,omitempty"`
	Calls  int     `json:"calls"`
	Median float64 `json:"median_us"`
	Allocs float64 `json:"allocs_per_call"`
}

// span is one recorded call: which rung, which request of the stream, and
// when, in nanoseconds since the ladder started.
type span struct {
	Rung    int   `json:"rung"`
	Request int   `json:"request"`
	Start   int64 `json:"start_ns"`
	End     int64 `json:"end_ns"`
}

// ladder holds the replay's inputs and everything it records.
type ladder struct {
	w      spec
	base   *policy.PolicySet
	groups [][]access        // the stream's head, grouped per call
	warm   []*policy.Request // every key of a warm population, replayed untimed through each rung first
	start  time.Time
	rungs  []rung
	spans  []span
	ctx    context.Context
}

func newLadder(w spec, seed int64) *ladder {
	n, per := ladderCalls, 1
	if w.batch > 1 {
		n, per = ladderBatchCalls, w.batch
	}
	// The same draws as the timed stream's head: generate() seeds its
	// stream the same way.
	accesses := drawAccesses(streamRand(seed), w, n*per)
	l := &ladder{w: w, base: policyBase(w), ctx: context.Background(), start: time.Now()}
	for c := 0; c < n; c++ {
		l.groups = append(l.groups, accesses[c*per:(c+1)*per])
	}
	if !w.veto {
		for _, a := range everyKey(w) {
			l.warm = append(l.warm, buildRequest(a, false))
		}
	}
	return l
}

// requests renders the stream's head as fresh request objects. Every rung
// gets its own: a policy.Request memoises its cache key on first use, and
// on the real path every request is freshly decoded and pays for it.
func (l *ladder) requests() [][]*policy.Request {
	calls := make([][]*policy.Request, len(l.groups))
	for i, group := range l.groups {
		calls[i] = make([]*policy.Request, len(group))
		for k, a := range group {
			calls[i][k] = buildRequest(a, l.w.veto)
		}
	}
	return calls
}

// arm is one rung of a measurement: a name, the rung that contains it on
// the real path, and the call to time.
type arm struct {
	name, parent string
	fn           func(i int)
}

// interleave is the block size of measure: rungs that are compared with
// each other run their calls in alternating blocks, so heap size, GC phase
// and CPU state are the same for all of them and the differences between
// their medians are the layers, not the moment they ran.
const interleave = 32

// measure replays calls 0..n-1 through every arm, in alternating blocks,
// recording one span per call, and returns each arm's median in µs.
func (l *ladder) measure(n int, arms ...arm) []float64 {
	runtime.GC()
	first := len(l.rungs)
	durations := make([][]int64, len(arms))
	mallocs := make([]uint64, len(arms))
	var before, after runtime.MemStats
	for lo := 0; lo < n; lo += interleave {
		for a, arm := range arms {
			runtime.ReadMemStats(&before)
			for i := lo; i < min(lo+interleave, n); i++ {
				s := time.Since(l.start)
				arm.fn(i)
				e := time.Since(l.start)
				durations[a] = append(durations[a], int64(e-s))
				l.spans = append(l.spans, span{Rung: first + a, Request: i, Start: int64(s), End: int64(e)})
			}
			runtime.ReadMemStats(&after)
			mallocs[a] += after.Mallocs - before.Mallocs
		}
	}
	medians := make([]float64, len(arms))
	for a, arm := range arms {
		slices.Sort(durations[a])
		medians[a] = median(durations[a]) / 1e3
		l.rungs = append(l.rungs, rung{
			Name: arm.name, Parent: arm.parent, Calls: n, Median: medians[a],
			Allocs: float64(mallocs[a]) / float64(n),
		})
	}
	return medians
}

// newResolver is pdpd's -subjects wiring: the directory behind a 30 s
// coalescing cache with the negative TTL and breaker -breaker adds.
func (l *ladder) newResolver() *pip.Cache {
	dir := pip.NewDirectory("pdpd-subjects")
	for u := 0; u < l.w.users; u++ {
		s := subjectOf(u)
		dir.AddSubject(pip.Subject{ID: s.ID, Roles: s.Roles, Clearance: s.Clearance})
	}
	return pip.NewCachedChain("pdpd-pip", 30*time.Second, dir).
		WithNegativeTTL(2*time.Second).WithBreaker(5, time.Second)
}

// engineOptions is what pdpd -cache 5m -subjects passes each engine. Every
// rung gets a resolver (and caches) of its own, so no rung answers from
// what an earlier rung's replay of the same stream left behind.
func (l *ladder) engineOptions() []pdp.Option {
	return []pdp.Option{pdp.WithDecisionCache(5*time.Minute, 0), pdp.WithResolver(l.newResolver())}
}

func (l *ladder) newEngine(name string) (*pdp.Engine, error) {
	e := pdp.New(name, l.engineOptions()...)
	return e, e.SetRoot(l.base)
}

// newRouter is pdpd -shards 2 -replicas 2 -strategy failover -breaker
// -stale-grace 30s.
func (l *ladder) newRouter() (*cluster.Router, error) {
	r, err := cluster.New("pdpd", cluster.Config{
		Shards: 2, Replicas: 2, Strategy: ha.Failover,
		EngineOptions: l.engineOptions(),
		Resilience: &resilience.Policy{
			Breaker:    resilience.BreakerConfig{Threshold: 5, Cooldown: time.Second},
			StaleGrace: 30 * time.Second,
		},
	})
	if err != nil {
		return nil, err
	}
	return r, r.SetRoot(l.base)
}

// handler is pdpd's decision handler stack over a fresh, warmed router:
// /decide and /decide-batch behind wire.HTTPHandler, optionally behind the
// -admission 256 middleware.
func (l *ladder) handler(admission bool) (http.Handler, error) {
	r, err := l.newRouter()
	if err != nil {
		return nil, err
	}
	for _, req := range l.warm {
		r.Decide(l.ctx, req)
	}
	mux := http.NewServeMux()
	mux.Handle("/decide", wire.HTTPHandler(pdp.Handler(r)))
	mux.Handle("/decide-batch", wire.HTTPHandler(pdp.BatchHandler(r)))
	if !admission {
		return mux, nil
	}
	return resilience.NewAdmission(resilience.AdmissionConfig{Initial: 256}).Middleware(nil, mux), nil
}

// decider is the decision surface of one rung, single or batch.
type decider struct {
	one  func(*policy.Request) policy.Result
	many func([]*policy.Request) []policy.Result
}

// decide runs one call of the stream through d.
func (l *ladder) decide(d decider, group []*policy.Request) []policy.Result {
	if len(group) == 1 {
		return []policy.Result{d.one(group[0])}
	}
	return d.many(group)
}

// decisionArm warms d where the population allows it and returns the arm
// that replays the stream through it.
func (l *ladder) decisionArm(name, parent string, d decider) arm {
	for _, req := range l.warm {
		d.one(req)
	}
	calls := l.requests()
	return arm{name, parent, func(i int) { l.decide(d, calls[i]) }}
}

// layerTimes is what the ladder reports, in µs per call (per envelope: a
// batch.closed call carries 64 requests).
type layerTimes struct {
	calls                                      int     // calls replayed through each decision rung
	requestCodec, responseCodec, envelopeCodec float64 // both directions, as a PEP and a PDP pay them together
	serverCodec                                float64 // the halves the daemon pays: request decode + response encode, envelope and XACML
	engine, ensembleSelf, routeSelf            float64
	pipResolve                                 float64
	httpSelf, admissionSelf                    float64
	top                                        float64 // the whole in-process rung: Σ of the self times above
	gate, applyUpdate, putSelf, append         float64 // write path, µs per policy write
}

// run replays the stream through every rung.
func (l *ladder) run(dir string) (*layerTimes, error) {
	n := len(l.groups)
	t := &layerTimes{calls: n}
	now := time.Now()

	// Decision rungs: engine, ensemble over two replicas, and the sharded
	// router, each called the way the layer above it calls it.
	engine, err := l.newEngine("pdpd/engine")
	if err != nil {
		return nil, err
	}
	var replicas []*ha.Failable
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("pdpd/shard-0/r%d", i)
		e, err := l.newEngine(name)
		if err != nil {
			return nil, err
		}
		replicas = append(replicas, ha.NewFailable(name, e))
	}
	ensemble := ha.NewEnsemble("pdpd/shard-0", ha.Failover, replicas...)
	router, err := l.newRouter()
	if err != nil {
		return nil, err
	}
	routerDecider := func(r *cluster.Router) decider {
		return decider{
			one:  func(req *policy.Request) policy.Result { return r.Decide(l.ctx, req) },
			many: func(reqs []*policy.Request) []policy.Result { return r.DecideBatch(l.ctx, reqs) },
		}
	}
	med := l.measure(n,
		l.decisionArm("pdp.engine", "ha.ensemble", decider{
			one:  func(req *policy.Request) policy.Result { return engine.DecideAt(l.ctx, req, now) },
			many: func(reqs []*policy.Request) []policy.Result { return engine.DecideBatchAt(l.ctx, reqs, now) },
		}),
		l.decisionArm("ha.ensemble", "cluster.router", decider{
			one:  func(req *policy.Request) policy.Result { return ensemble.DecideAt(l.ctx, req, now) },
			many: func(reqs []*policy.Request) []policy.Result { return ensemble.DecideBatchAt(l.ctx, reqs, now) },
		}),
		l.decisionArm("cluster.router", "wire.http", routerDecider(router)),
	)
	t.engine, t.ensembleSelf, t.routeSelf = med[0], med[1]-med[0], med[2]-med[1]
	medRouter := med[2]

	// The PIP call a cold request makes inside the engine, on its own.
	resolver := l.newResolver()
	calls := l.requests()
	t.pipResolve = l.measure(n, arm{"pip.resolve", "pdp.engine", func(i int) {
		for _, req := range calls[i] {
			_, _ = resolver.ResolveAttribute(l.ctx, req, policy.CategorySubject, policy.AttrSubjectRole)
		}
	}})[0]

	// Codec rungs. Each direction is its own span; the reported codec
	// metrics add both, the ladder sum takes the daemon's halves. The
	// answers to encode come from the router rung's instance (its second
	// look at the stream, so possibly from cache: only the bytes matter).
	results := make([][]policy.Result, n)
	for i, group := range calls {
		results[i] = l.decide(routerDecider(router), group)
		// A rung that decides wrongly measures nothing.
		for k, a := range l.groups[i] {
			if got, want := classify(results[i][k].Decision), expect(a.user, a.resource, l.w.veto); got != want {
				return nil, fmt.Errorf("ladder: call %d position %d: router says %s, oracle says %s", i, k, got, want)
			}
		}
	}
	var codecErr error
	note := func(err error) {
		if err != nil && codecErr == nil {
			codecErr = err
		}
	}
	// Each codec arm consumes what the arm before it produced for the same
	// call, which block interleaving preserves.
	requestDocs, replyDocs := make([][][]byte, n), make([][][]byte, n)
	requestWire, replyWire := make([][]byte, n), make([][]byte, n)
	frame := func(action string, docs [][]byte) []byte {
		env := &wire.Envelope{MessageID: "ladder", From: "bench", To: "pdpd", Action: action, Timestamp: envelopeTime, Body: docs[0]}
		var err error
		if len(docs) > 1 {
			env.Body, err = wire.EncodeBodies(docs)
			note(err)
		}
		data, err := env.EncodeXML()
		note(err)
		return data
	}
	unframe := func(data []byte, docs int) {
		env, err := wire.DecodeXML(data)
		note(err)
		if err == nil && docs > 1 {
			_, err = wire.DecodeBodies(env.Body)
			note(err)
		}
	}
	med = l.measure(n,
		arm{"xacml.request_marshal", "", func(i int) {
			requestDocs[i] = make([][]byte, len(calls[i]))
			for k, req := range calls[i] {
				var err error
				requestDocs[i][k], err = xacml.MarshalRequestXML(req)
				note(err)
			}
		}},
		arm{"wire.request_encode", "", func(i int) { requestWire[i] = frame("pdp:decide", requestDocs[i]) }},
		arm{"wire.request_decode", "wire.http", func(i int) { unframe(requestWire[i], len(calls[i])) }},
		arm{"xacml.request_unmarshal", "wire.http", func(i int) {
			for _, doc := range requestDocs[i] {
				_, err := xacml.UnmarshalRequestXML(doc)
				note(err)
			}
		}},
		arm{"xacml.response_marshal", "wire.http", func(i int) {
			replyDocs[i] = make([][]byte, len(results[i]))
			for k, res := range results[i] {
				var err error
				replyDocs[i][k], err = xacml.MarshalResponseXML(res)
				note(err)
			}
		}},
		arm{"wire.reply_encode", "wire.http", func(i int) { replyWire[i] = frame("pdp:decision", replyDocs[i]) }},
		arm{"wire.reply_decode", "", func(i int) { unframe(replyWire[i], len(calls[i])) }},
		arm{"xacml.response_unmarshal", "", func(i int) {
			for _, doc := range replyDocs[i] {
				_, err := xacml.UnmarshalResponseXML(doc)
				note(err)
			}
		}},
	)
	if codecErr != nil {
		return nil, fmt.Errorf("ladder codec rung: %w", codecErr)
	}
	t.requestCodec = med[0] + med[3]
	t.envelopeCodec = med[1] + med[2] + med[5] + med[6]
	t.responseCodec = med[4] + med[7]
	t.serverCodec = med[2] + med[3] + med[4] + med[5]

	// HTTP rungs: exactly the timed path's call — pre-encoded bytes POSTed
	// over one keep-alive connection — against pdpd's handler stack served
	// in-process, without and with the admission middleware.
	bodies := make([][]byte, n)
	for i := range bodies {
		c, err := encodeCall(l.w, fmt.Sprintf("ladder-%d", i), l.groups[i])
		if err != nil {
			return nil, err
		}
		bodies[i] = c.body
	}
	bad := 0
	httpArm := func(name, parent string, admission bool) (arm, func(), error) {
		handler, err := l.handler(admission)
		if err != nil {
			return arm{}, nil, err
		}
		srv := httptest.NewServer(handler)
		cn := newConn()
		url := srv.URL + l.w.endpoint()
		return arm{name, parent, func(i int) {
			if status, _ := post(cn, url, "application/xml", bodies[i], int64(l.w.budgetMs())); status != http.StatusOK {
				bad++
			}
		}}, func() { cn.CloseIdleConnections(); srv.Close() }, nil
	}
	plain, closePlain, err := httpArm("wire.http", "resilience.admission", false)
	if err != nil {
		return nil, err
	}
	defer closePlain()
	admitted, closeAdmitted, err := httpArm("resilience.admission", "", true)
	if err != nil {
		return nil, err
	}
	defer closeAdmitted()
	med = l.measure(n, plain, admitted)
	if bad > 0 {
		return nil, fmt.Errorf("ladder: %d HTTP rung calls not answered 200", bad)
	}
	t.top = med[1]
	t.httpSelf = med[0] - medRouter - t.serverCodec
	t.admissionSelf = med[1] - med[0]

	return t, l.writeRungs(dir, t)
}

// writeRungs replays ladderWrites policy rewrites through each step of
// the admin write path: the analysis gate, pap.Store.Put over an in-memory
// and over a WAL backend, and the delta update of the decision point.
func (l *ladder) writeRungs(dir string, t *layerTimes) error {
	writes := make([]policy.Evaluable, ladderWrites)
	for k := range writes {
		writes[k] = l.base.Children[k%len(l.base.Children)]
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	eng := analysis.NewEngine(analysis.Config{RootCombining: l.base.Combining})
	eng.Install(l.base.Children...)
	gate := analysis.NewGate(eng, analysis.ModeWarn)
	t.gate = l.measure(len(writes), arm{"analysis.gate", "admin.write", func(k int) {
		_, err := gate.Check(writes[k].EntityID(), writes[k])
		note(err)
	}})[0]

	router, err := l.newRouter()
	if err != nil {
		return err
	}
	t.applyUpdate = l.measure(len(writes), arm{"pdp.apply_update", "admin.write", func(k int) {
		note(router.ApplyUpdate(pdp.Update{ID: writes[k].EntityID(), Child: writes[k]}))
	}})[0]

	// Seed each store before attaching its backend, as recovery does, so
	// only the measured writes reach it.
	seeded := func(backend pap.Backend) (*pap.Store, error) {
		st := pap.NewStore("pdpd")
		for _, ch := range l.base.Children {
			if _, err := st.Put(ch); err != nil {
				return nil, err
			}
		}
		st.SetBackend(backend)
		return st, nil
	}
	mem, err := seeded(store.NewMemory())
	if err != nil {
		return err
	}
	lg, err := store.Open(filepath.Join(dir, "ladder-wal"), store.Options{})
	if err != nil {
		return err
	}
	durable, err := seeded(lg)
	if err != nil {
		lg.Close()
		return err
	}
	med := l.measure(len(writes),
		arm{"pap.put_memory", "pap.put_wal", func(k int) {
			_, err := mem.Put(writes[k])
			note(err)
		}},
		arm{"pap.put_wal", "admin.write", func(k int) {
			_, err := durable.Put(writes[k])
			note(err)
		}},
	)
	if err := lg.Close(); err != nil {
		return err
	}
	t.putSelf, t.append = med[0], med[1]-med[0]
	return firstErr
}

// writeTrace stores the rung table and every span.
func (l *ladder) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprintf(w, "{\"workload\": %q, \"rungs\": ", l.w.name)
	if err := enc.Encode(l.rungs); err != nil {
		f.Close()
		return err
	}
	fmt.Fprint(w, ", \"spans\": ")
	if err := enc.Encode(l.spans); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintln(w, "}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
