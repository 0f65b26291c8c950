package repro

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/wire"
	"repro/internal/workload"
)

// lateReader answers from its engine at a fixed time and then, about 5 ms
// after returning, re-reads each selected request on a goroutine of its
// own: a reader that outlives the handler which decoded the requests. A
// request whose text changed by then was built over a buffer the handler
// reused, and panics.
type lateReader struct {
	engine *pdp.Engine
	at     time.Time
	late   *sync.WaitGroup
}

func (l lateReader) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, _ time.Time, resolver policy.Resolver, out []policy.Result) {
	l.engine.DecideScatterAt(ctx, reqs, positions, l.at, resolver, out)
	seen := make([]string, len(reqs))
	policy.EachPosition(len(reqs), positions, func(p int) { seen[p] = reqs[p].String() })
	l.late.Add(1)
	go func() {
		defer l.late.Done()
		time.Sleep(5 * time.Millisecond)
		policy.EachPosition(len(reqs), positions, func(p int) {
			if got := reqs[p].String(); got != seen[p] {
				panic(fmt.Sprintf("request %d changed after its handler returned: %q, then %q", p, seen[p], got))
			}
		})
	}()
}

// TestLateReaderOutlivesPooledBuffers serves batches through the HTTP
// binding over a decider that keeps reading its requests after the
// handler has returned, while the handler's pooled buffers serve the next
// batch. Decoded requests must own their strings: run under -race; every
// answer must equal a reference engine's.
func TestLateReaderOutlivesPooledBuffers(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	gen := workload.NewGenerator(workload.Config{Users: 40, Resources: 32, Roles: 4, Seed: 3})
	root := gen.PolicyBase("base")
	engine := func() *pdp.Engine {
		e := pdp.New("e", pdp.WithResolver(gen.Directory("idp")))
		if err := e.SetRoot(root); err != nil {
			t.Fatal(err)
		}
		return e
	}
	reference := engine()
	var late sync.WaitGroup
	defer late.Wait()
	srv := httptest.NewServer(wire.HTTPHandler(pdp.BatchHandler(lateReader{engine: engine(), at: at, late: &late})))
	defer srv.Close()
	client := pdp.NewClient(srv.URL, "pep", "pdpd")

	for round := 0; round < 12; round++ {
		reqs := gen.Requests(16)
		got := policy.DecideBatch(context.Background(), client, reqs, at)
		for i, req := range reqs {
			want := policy.Decide(context.Background(), reference, req, at)
			if got[i].Decision != want.Decision || got[i].By != want.By {
				t.Fatalf("round %d request %d (%s): served %v by %q, reference engine %v by %q",
					round, i, req, got[i].Decision, got[i].By, want.Decision, want.By)
			}
		}
	}
}
