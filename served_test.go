package repro

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/ha"
	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/wire"
	"repro/internal/workload"
)

// hedgedBatch serves batches from a hedged ensemble on a context cut loose
// from the request's cancellation, so the stalled primary's walk runs to
// completion, reading its requests, after the handler has returned.
type hedgedBatch struct {
	ens *ha.Ensemble
	at  time.Time
}

func (h hedgedBatch) DecideBatch(ctx context.Context, reqs []*policy.Request) []policy.Result {
	return h.ens.DecideBatchAt(context.WithoutCancel(ctx), reqs, h.at)
}

// TestHedgeLoserOutlivesPooledBuffers serves batches through the HTTP
// binding over a hedged ensemble whose primary stalls past the hedge
// delay: the hedge answers, the handler returns and its pooled buffers
// serve the next batch while the primary is still reading the last one's
// requests. Run under -race; every answer must equal a single engine's.
func TestHedgeLoserOutlivesPooledBuffers(t *testing.T) {
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
	primary, backup := ha.NewFailable("r0", engine()), ha.NewFailable("r1", engine())
	primary.SetStall(20 * time.Millisecond)
	ens := ha.NewEnsemble("ens", ha.Failover, primary, backup)
	ens.SetHedge(time.Millisecond)
	srv := httptest.NewServer(wire.HTTPHandler(pdp.BatchHandler(hedgedBatch{ens: ens, at: at})))
	defer srv.Close()
	client := pdp.NewClient(srv.URL, "pep", "pdpd")

	for round := 0; round < 12; round++ {
		reqs := gen.Requests(16)
		got := client.DecideBatchAt(context.Background(), reqs, at)
		for i, req := range reqs {
			want := reference.DecideAt(context.Background(), req, at)
			if got[i].Decision != want.Decision || got[i].By != want.By {
				t.Fatalf("round %d request %d (%s): served %v by %q, single engine %v by %q",
					round, i, req, got[i].Decision, got[i].By, want.Decision, want.By)
			}
		}
	}
	if st := ens.Stats(); st.HedgeWins == 0 {
		t.Fatalf("stats = %+v: the hedge never won, so no loser outlived its handler", st)
	}
}
