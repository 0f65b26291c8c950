//go:build !race

package repro

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ha"
	"repro/internal/pdp"
	"repro/internal/pip"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xacml"
)

// servedDeployment is pdpd's serving stack without TCP: the two envelope
// handlers over one StaleCache over a 2×2 failover router whose engines
// cache decisions and resolve roles and clearance through a cached PIP
// chain. The base is resource policies plus clearance vetoes, and
// requests are cold (subject, resource, action), as in bench's cold
// workloads. opts configure both handlers, as pdpd's one tracer does.
func servedDeployment(t *testing.T, opts ...wire.HTTPOption) (single, batch http.Handler) {
	t.Helper()
	const users, resources, roles = 512, 256, 16
	dir := pip.NewDirectory("idp")
	for u := 0; u < users; u++ {
		dir.AddSubject(pip.Subject{ID: workload.UserID(u), Roles: []string{workload.RoleID(u % roles)}, Clearance: 9})
	}
	base := policy.NewPolicySet("root").Combining(policy.DenyOverrides)
	for i := 0; i < resources; i++ {
		base.Add(workload.ResourcePolicy(i, roles))
	}
	for k := 0; k < 4; k++ {
		base.Add(policy.NewPolicy(fmt.Sprintf("veto-%d", k)).Combining(policy.DenyOverrides).
			Rule(policy.Deny("low-clearance").
				If(policy.Call(policy.FnLessThan, policy.SubjectAttr(policy.AttrClearance), policy.Lit(policy.Integer(int64(k+1))))).
				Build()).
			Build())
	}
	router, err := cluster.New("served", cluster.Config{
		Shards: 2, Replicas: 2, Strategy: ha.Failover,
		EngineOptions: []pdp.Option{
			pdp.WithDecisionCache(time.Hour, 0),
			pdp.WithResolver(pip.NewCachedChain("pip", time.Hour, dir)),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.SetRoot(base.Build()); err != nil {
		t.Fatal(err)
	}
	stale := resilience.NewStaleCache(router, &resilience.Policy{StaleGrace: 30 * time.Second})
	return wire.HTTPHandler(pdp.Handler(stale), opts...), wire.HTTPHandler(pdp.BatchHandler(stale), opts...)
}

// postEnvelope encodes one posted envelope of the given accesses.
func postEnvelope(t *testing.T, accesses [][2]int, action string) []byte {
	t.Helper()
	docs := make([][]byte, len(accesses))
	for i, a := range accesses {
		var err error
		if docs[i], err = xacml.MarshalRequestXML(policy.NewAccessRequest(workload.UserID(a[0]), workload.ResourceID(a[1]), action)); err != nil {
			t.Fatal(err)
		}
	}
	env := &wire.Envelope{MessageID: "m", From: "pep", To: "pdpd", Action: "pdp:decide",
		Timestamp: time.Unix(1700000000, 0).UTC(), Body: docs[0]}
	if len(docs) > 1 {
		frame, err := wire.EncodeBodies(docs)
		if err != nil {
			t.Fatal(err)
		}
		env.Action, env.Body = "pdp:decide-batch", frame
	}
	data, err := env.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServedDecisionAllocs measures what one served decision allocates
// inside the daemon, from the posted bytes to the written reply: hit and
// miss, single and 64-request batch. A miss is a decision key never seen
// before whose subject the PIP cache already holds (as on bench's cold
// workloads after warm-up); a hit repeats a decided envelope. The traced
// rows serve through pdpd's tracer as bench runs it (head sampling off,
// slow and Indeterminate traces kept), which pdpd always installs. The
// budgets are the measured values with a little headroom.
func TestServedDecisionAllocs(t *testing.T) {
	// The timed calls draw buffers from sync.Pools, which cache per P. A
	// goroutine the scheduler moves to another P mid-window, as it does
	// under CPU contention, misses the pools its warm-up filled and counts
	// refills no steady-state decision makes. So the test runs on one P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	single, batch := servedDeployment(t)
	tracer := trace.NewTracer(trace.Options{Sample: 0, SlowThreshold: 250 * time.Millisecond, Capacity: 256})
	tracedSingle, tracedBatch := servedDeployment(t, wire.WithTracer(tracer))
	for _, tc := range []struct {
		name          string
		h, warm       http.Handler
		size          int
		hit           bool
		allocs, bytes float64 // budgets per decision
	}{
		{"single/hit", single, batch, 1, true, 25, 2700},
		{"single/miss", single, batch, 1, false, 28, 5000},
		{"batch/hit", batch, batch, 64, true, 7, 1150},
		{"batch/miss", batch, batch, 64, false, 10.5, 2100},
		{"traced/single/hit", tracedSingle, tracedBatch, 1, true, 40, 3850},
		{"traced/single/miss", tracedSingle, tracedBatch, 1, false, 49, 6200},
		{"traced/batch/hit", tracedBatch, tracedBatch, 64, true, 7.5, 1200},
		{"traced/batch/miss", tracedBatch, tracedBatch, 64, false, 11, 2150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const calls = 16
			// Users 0..511 resolve once here, on write actions: the timed
			// reads are new decision keys over warm PIP entries.
			var warm [][2]int
			for u := 0; u < 512; u++ {
				warm = append(warm, [2]int{u, u % 256})
			}
			for off := 0; off < len(warm); off += 64 {
				serve(t, tc.warm, postEnvelope(t, warm[off:off+64], "write"))
			}
			posts := make([][]byte, calls)
			for c := range posts {
				accesses := make([][2]int, tc.size)
				for i := range accesses {
					n := c*tc.size + i
					if tc.hit {
						n = i
					}
					accesses[i] = [2]int{n % 512, (n / 512 * 7) % 256}
				}
				posts[c] = postEnvelope(t, accesses, "read")
			}
			// A collection between warm-up and the timed calls would empty
			// the sync.Pools the served path reuses, so the timed calls
			// would count refills no steady-state decision makes.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			if tc.hit {
				serve(t, tc.h, posts[0])
			} else {
				// Pools warm up on keys outside the timed ones.
				accesses := make([][2]int, tc.size)
				for i := range accesses {
					accesses[i] = [2]int{i, 200}
				}
				serve(t, tc.h, postEnvelope(t, accesses, "read"))
			}
			reqs := make([]*http.Request, calls)
			recs := make([]*httptest.ResponseRecorder, calls)
			for c := range reqs {
				reqs[c] = httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(posts[c]))
				recs[c] = httptest.NewRecorder()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for c := range reqs {
				tc.h.ServeHTTP(recs[c], reqs[c])
			}
			runtime.ReadMemStats(&after)
			for c, rec := range recs {
				if rec.Code != http.StatusOK {
					t.Fatalf("call %d: status %d: %s", c, rec.Code, rec.Body)
				}
			}
			n := float64(calls * tc.size)
			allocs := float64(after.Mallocs-before.Mallocs) / n
			bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / n
			t.Logf("%s: %.1f allocs, %.0f B per decision", tc.name, allocs, bytesPer)
			if allocs > tc.allocs || bytesPer > tc.bytes {
				t.Errorf("%s: %.1f allocs and %.0f B per decision, budget %.0f and %.0f", tc.name, allocs, bytesPer, tc.allocs, tc.bytes)
			}
		})
	}
}

func serve(t *testing.T, h http.Handler, post []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(post)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}
