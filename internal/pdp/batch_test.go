package pdp

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/workload"
)

func TestEngineDecideBatchMatchesDecide(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	gen := workload.NewGenerator(workload.Config{Users: 20, Resources: 100, Roles: 5, Seed: 3})
	// A root-level obligation makes the base uncompilable, so that variant
	// drives the interpreter through the batch path.
	uncompilable := func() policy.Evaluable {
		base := gen.PolicyBase("base")
		base.Obligations = []policy.Obligation{
			policy.RequireObligation("audit", policy.EffectDeny, map[string]string{"sink": "log"}),
		}
		return base
	}
	compilable := func() policy.Evaluable { return gen.PolicyBase("base") }
	for _, v := range []struct {
		name        string
		root        func() policy.Evaluable
		front       bool
		interpreted bool
	}{
		{"plain", compilable, false, false},
		{"cached", compilable, true, false},
		{"uncompilable", uncompilable, false, true},
	} {
		t.Run(v.name, func(t *testing.T) {
			reference := New("ref", WithResolver(gen.Directory("idp")))
			if err := reference.SetRoot(v.root()); err != nil {
				t.Fatal(err)
			}
			engine := New("batch", WithResolver(gen.Directory("idp")))
			if err := engine.SetRoot(v.root()); err != nil {
				t.Fatal(err)
			}
			// The cached variant decides through a front cache twice: the
			// first batch misses, the second is answered from the cache.
			var d policy.Decider = engine
			rounds := 1
			if v.front {
				d, rounds = frontOver(engine, time.Hour, 8192, nil), 2
			}
			reqs := gen.Requests(200)
			for round := 0; round < rounds; round++ {
				results := policy.DecideBatch(context.Background(), d, reqs, at)
				if len(results) != len(reqs) {
					t.Fatalf("got %d results for %d requests", len(results), len(reqs))
				}
				for i, res := range results {
					want := policy.Decide(context.Background(), reference, reqs[i], at)
					if res.Decision != want.Decision || res.By != want.By {
						t.Fatalf("round %d item %d: %s by %s, want %s by %s", round, i, res.Decision, res.By, want.Decision, want.By)
					}
				}
			}
			if st := engine.Stats(); v.interpreted && (st.Evaluations == 0 || st.InterpretedEvaluations != st.Evaluations) {
				t.Fatalf("%d of %d evaluations interpreted, want all", st.InterpretedEvaluations, st.Evaluations)
			}
		})
	}
}

// TestEngineDecideBatchCacheHits: a batch repeated through a front cache
// over an engine is answered from the cache, every position of it.
func TestEngineDecideBatchCacheHits(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	gen := workload.NewGenerator(workload.Config{Users: 10, Resources: 20, Roles: 2, Seed: 5})
	engine := New("e", WithResolver(gen.Directory("idp")))
	if err := engine.SetRoot(gen.PolicyBase("base")); err != nil {
		t.Fatal(err)
	}
	front := frontOver(engine, time.Hour, 8192, nil)
	reqs := gen.Requests(50)
	policy.DecideBatch(context.Background(), front, reqs, at)
	first, firstHits := engine.Stats(), front.Stats().Hits
	policy.DecideBatch(context.Background(), front, reqs, at)
	second, secondHits := engine.Stats(), front.Stats().Hits
	if second.Evaluations != first.Evaluations {
		t.Fatalf("second batch evaluated %d fresh decisions, want 0",
			second.Evaluations-first.Evaluations)
	}
	if secondHits-firstHits != int64(len(reqs)) {
		t.Fatalf("second batch hit cache %d times, want %d", secondHits-firstHits, len(reqs))
	}
}

func TestEngineDecideBatchNoRoot(t *testing.T) {
	engine := New("e")
	results := policy.DecideBatch(context.Background(), engine, []*policy.Request{policy.NewAccessRequest("u", "r", "read")}, time.Now())
	if len(results) != 1 || !errors.Is(results[0].Err, ErrNoPolicy) {
		t.Fatalf("rootless batch = %+v, want ErrNoPolicy", results)
	}
	if got := policy.DecideBatch(context.Background(), engine, nil, time.Now()); got != nil {
		t.Fatalf("empty batch returned %v", got)
	}
}
