package rest

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pep"
	"repro/internal/policy"
	"repro/internal/trace"
)

// fixedDecider answers every request with one result.
type fixedDecider policy.Result

func (d fixedDecider) DecideScatterAt(_ context.Context, reqs []*policy.Request, positions []int, _ time.Time, _ policy.Resolver, out []policy.Result) {
	policy.EachPosition(len(reqs), positions, func(p int) { out[p] = policy.Result(d) })
}

// TestOutcomeTable is the one outcome table of both enforcement surfaces:
// for every decision × obligation case, pep.Enforcer.Enforce allows exactly
// when the middleware answers 200. It also pins the middleware's side
// effects: the upstream runs only for a permit whose obligations are all
// understood, a transformer only for such a permit, a deny-side obligation
// only best-effort (its handler runs, the access stays refused), and an
// Indeterminate trace is always kept.
func TestOutcomeTable(t *testing.T) {
	errBroken := errors.New("broken")
	obligations := []struct {
		name string
		obs  []policy.FulfilledObligation
	}{
		{"none", nil},
		{"understood", []policy.FulfilledObligation{{ID: "stamp"}}},
		{"unknown", []policy.FulfilledObligation{{ID: "mystery"}}},
		{"failing", []policy.FulfilledObligation{{ID: "broken"}}},
	}
	decisions := []policy.Decision{
		policy.DecisionPermit, policy.DecisionDeny,
		policy.DecisionNotApplicable, policy.DecisionIndeterminate,
	}
	for _, d := range decisions {
		for _, o := range obligations {
			t.Run(d.String()+"/"+o.name, func(t *testing.T) {
				res := policy.Result{Decision: d, By: "stub", Obligations: o.obs}
				if d == policy.DecisionIndeterminate {
					res.Err = errors.New("stub failure")
				}
				decider := fixedDecider(res)

				var handled int
				enforcer := pep.NewEnforcer("table", decider,
					pep.WithObligationHandler("stamp", func(policy.FulfilledObligation, *policy.Request) error {
						handled++
						return nil
					}),
					pep.WithObligationHandler("broken", func(policy.FulfilledObligation, *policy.Request) error {
						handled++
						return errBroken
					}))
				req := policy.NewRequest().
					Add(policy.CategorySubject, policy.AttrSubjectID, policy.String("sam")).
					Add(policy.CategoryResource, policy.AttrResourceID, policy.String("/docs/d-1")).
					Add(policy.CategoryAction, policy.AttrActionID, policy.String("read"))
				allowed := enforcer.Enforce(context.Background(), req).Allowed

				var upstream, transformed atomic.Int32
				tracer := trace.NewTracer(trace.Options{Sample: 0})
				router := NewRouter()
				router.MustAdd("/docs/{id}", "doc")
				mw := NewMiddleware(router, decider, HeaderSubject,
					WithTransformer("stamp", func(_ policy.FulfilledObligation, body []byte) ([]byte, error) {
						transformed.Add(1)
						return append(body, '!'), nil
					}),
					WithTransformer("broken", func(policy.FulfilledObligation, []byte) ([]byte, error) {
						transformed.Add(1)
						return nil, errBroken
					}),
					WithTracer(tracer))
				srv := httptest.NewServer(mw.Wrap(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
					upstream.Add(1)
					_, _ = io.WriteString(w, "doc")
				})))
				defer srv.Close()
				resp, body := get(t, srv.URL+"/docs/d-1", "sam", "")

				permit := d == policy.DecisionPermit
				wantAllowed := permit && (o.name == "none" || o.name == "understood")
				if allowed != wantAllowed {
					t.Errorf("Enforce allowed = %v, want %v", allowed, wantAllowed)
				}
				wantStatus := http.StatusForbidden
				if allowed {
					wantStatus = http.StatusOK
				}
				if resp.StatusCode != wantStatus {
					t.Errorf("middleware status = %d, want %d (Enforce allowed = %v)", resp.StatusCode, wantStatus, allowed)
				}
				if wantAllowed && o.name == "understood" && body != "doc!" {
					t.Errorf("body = %q, want the transformed %q", body, "doc!")
				}

				// A transformer needs the body, so a permit whose obligations
				// are all understood calls the upstream; nothing else does.
				wantUpstream := int32(0)
				if permit && o.name != "unknown" {
					wantUpstream = 1
				}
				if got := upstream.Load(); got != wantUpstream {
					t.Errorf("upstream calls = %d, want %d", got, wantUpstream)
				}
				wantTransformed := wantUpstream
				if o.name == "none" {
					wantTransformed = 0
				}
				if got := transformed.Load(); got != wantTransformed {
					t.Errorf("transformer calls = %d, want %d", got, wantTransformed)
				}
				// Deny-side obligations are best-effort: their handler runs,
				// and the access stays refused whatever it returns.
				wantHandled := 0
				if (permit || d == policy.DecisionDeny) && (o.name == "understood" || o.name == "failing") {
					wantHandled = 1
				}
				if handled != wantHandled {
					t.Errorf("enforcer obligation handler calls = %d, want %d", handled, wantHandled)
				}

				wantKept := int64(0)
				if d == policy.DecisionIndeterminate {
					wantKept = 1
				}
				if got := tracer.Stats().KeptForced; got != wantKept {
					t.Errorf("forced-kept traces = %d, want %d", got, wantKept)
				}
			})
		}
	}
}
