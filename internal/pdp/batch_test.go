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
		opts        []Option
		interpreted bool
	}{
		{"plain", compilable, nil, false},
		{"cached", compilable, []Option{WithDecisionCache(time.Hour, 0)}, false},
		{"uncompilable", uncompilable, nil, true},
	} {
		t.Run(v.name, func(t *testing.T) {
			reference := New("ref", WithResolver(gen.Directory("idp")))
			if err := reference.SetRoot(v.root()); err != nil {
				t.Fatal(err)
			}
			engine := New("batch", append([]Option{WithResolver(gen.Directory("idp"))}, v.opts...)...)
			if err := engine.SetRoot(v.root()); err != nil {
				t.Fatal(err)
			}
			reqs := gen.Requests(200)
			results := engine.DecideBatchAt(context.Background(), reqs, at)
			if len(results) != len(reqs) {
				t.Fatalf("got %d results for %d requests", len(results), len(reqs))
			}
			for i, res := range results {
				want := reference.DecideAt(context.Background(), reqs[i], at)
				if res.Decision != want.Decision || res.By != want.By {
					t.Fatalf("item %d: %s by %s, want %s by %s", i, res.Decision, res.By, want.Decision, want.By)
				}
			}
			if st := engine.Stats(); v.interpreted && (st.Evaluations == 0 || st.InterpretedEvaluations != st.Evaluations) {
				t.Fatalf("%d of %d evaluations interpreted, want all", st.InterpretedEvaluations, st.Evaluations)
			}
		})
	}
}

func TestEngineDecideBatchCacheHits(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	gen := workload.NewGenerator(workload.Config{Users: 10, Resources: 20, Roles: 2, Seed: 5})
	engine := New("e", WithResolver(gen.Directory("idp")), WithDecisionCache(time.Hour, 0))
	if err := engine.SetRoot(gen.PolicyBase("base")); err != nil {
		t.Fatal(err)
	}
	reqs := gen.Requests(50)
	engine.DecideBatchAt(context.Background(), reqs, at)
	first := engine.Stats()
	engine.DecideBatchAt(context.Background(), reqs, at)
	second := engine.Stats()
	if second.Evaluations != first.Evaluations {
		t.Fatalf("second batch evaluated %d fresh decisions, want 0",
			second.Evaluations-first.Evaluations)
	}
	if second.CacheHits-first.CacheHits != int64(len(reqs)) {
		t.Fatalf("second batch hit cache %d times, want %d",
			second.CacheHits-first.CacheHits, len(reqs))
	}
}

func TestEngineDecideBatchNoRoot(t *testing.T) {
	engine := New("e")
	results := engine.DecideBatchAt(context.Background(), []*policy.Request{policy.NewAccessRequest("u", "r", "read")}, time.Now())
	if len(results) != 1 || !errors.Is(results[0].Err, ErrNoPolicy) {
		t.Fatalf("rootless batch = %+v, want ErrNoPolicy", results)
	}
	if got := engine.DecideBatchAt(context.Background(), nil, time.Now()); got != nil {
		t.Fatalf("empty batch returned %v", got)
	}
}
