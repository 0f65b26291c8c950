package pdp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/workload"
)

// The compiled decision program must be observationally identical to the
// tree-walking interpreter: same Decision, same By chain, same error text,
// same fulfilled obligations, for every base × request pair — including
// bases with constructs the compiler cannot lower (conditions, non-equality
// matches, nested sets, dynamic obligations), which must fall back child by
// child without changing semantics. The tests here drive that equivalence
// with randomized bases, randomized requests, a failing attribute resolver,
// and randomized ApplyUpdate churn.

var equivAt = time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)

// flakyEquivResolver resolves roles for known subjects, errors for the
// subject "flaky" (exercising Indeterminate propagation through both
// paths), and returns an empty bag otherwise.
var flakyEquivResolver = policy.ResolverFunc(func(_ context.Context, req *policy.Request, cat policy.Category, name string) (policy.Bag, error) {
	if req.SubjectID() == "flaky" {
		return nil, errors.New("attribute store unavailable")
	}
	if cat == policy.CategorySubject && name == policy.AttrSubjectRole {
		switch req.SubjectID() {
		case "alice":
			return policy.Singleton(policy.String("admin")), nil
		case "bob":
			return policy.Bag{policy.String("dev"), policy.String("auditor")}, nil
		}
	}
	return nil, nil
})

var (
	equivResources = []string{"res-0", "res-1", "res-2", "res-3", "res-4", "res-5", "res-6", "res-7"}
	equivActions   = []string{"read", "write", "delete", "audit"}
	equivRoles     = []string{"admin", "dev", "auditor", "guest"}
	equivAlgs      = []policy.Algorithm{
		policy.DenyOverrides, policy.PermitOverrides, policy.FirstApplicable,
		policy.OnlyOneApplicable, policy.DenyUnlessPermit, policy.PermitUnlessDeny,
	}
	equivRuleAlgs = []policy.Algorithm{
		policy.DenyOverrides, policy.PermitOverrides, policy.FirstApplicable,
		policy.DenyUnlessPermit, policy.PermitUnlessDeny,
	}
)

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// randomEquivRule covers targeted, disjunctive, conditioned (fallback) and
// obligated (static and dynamic-fallback) rule shapes.
func randomEquivRule(rng *rand.Rand, i int) *policy.Rule {
	b := policy.NewRule(fmt.Sprintf("rule-%d", i))
	if rng.Intn(2) == 0 {
		b.Permits()
	}
	switch rng.Intn(6) {
	case 0: // bare rule
	case 1:
		b.When(policy.MatchActionID(pick(rng, equivActions)))
	case 2:
		b.WhenAny(policy.MatchActionID(pick(rng, equivActions)), policy.MatchActionID(pick(rng, equivActions)))
	case 3:
		b.When(policy.MatchRole(pick(rng, equivRoles)))
	case 4:
		// Condition: the whole policy must fall back to the interpreter.
		b.If(policy.AttrEquals(policy.CategorySubject, policy.AttrClearance, policy.Integer(int64(rng.Intn(3)))))
	case 5:
		b.When(policy.MatchResourceID(pick(rng, equivResources)), policy.MatchActionID(pick(rng, equivActions)))
	}
	switch rng.Intn(5) {
	case 0:
		effect := policy.EffectDeny
		if rng.Intn(2) == 0 {
			effect = policy.EffectPermit
		}
		b.Obligation(policy.RequireObligation(fmt.Sprintf("log-%d", i), effect,
			map[string]string{"channel": pick(rng, equivActions)}))
	case 1:
		// Dynamic assignment: not a literal, so the policy is uncompilable.
		b.Obligation(policy.Obligation{
			ID:        fmt.Sprintf("notify-%d", i),
			FulfillOn: policy.EffectPermit,
			Assignments: []policy.Assignment{
				{Name: "who", Expr: policy.Attr(policy.CategorySubject, policy.AttrSubjectID)},
			},
		})
	}
	return b.Build()
}

// randomEquivPolicy covers pinned-resource, pinned-role, pinned-action,
// disjunctive, mixed-first-group (unpinned), non-equality (fallback) and
// empty targets, every rule-combining algorithm and optional policy-level
// obligations.
func randomEquivPolicy(rng *rand.Rand, id string) *policy.Policy {
	b := policy.NewPolicy(id).Combining(pick(rng, equivRuleAlgs))
	switch rng.Intn(8) {
	case 0: // catch-all child
	case 1:
		b.When(policy.MatchResourceID(pick(rng, equivResources)))
	case 2:
		b.WhenAny(policy.MatchResourceID(pick(rng, equivResources)), policy.MatchResourceID(pick(rng, equivResources)))
	case 3:
		b.When(policy.MatchResourceID(pick(rng, equivResources)), policy.MatchActionID(pick(rng, equivActions)))
	case 4:
		b.When(policy.MatchRole(pick(rng, equivRoles)))
	case 5:
		b.When(policy.MatchActionID(pick(rng, equivActions)))
	case 6:
		// First group mixes attributes: compilable but pinned in no
		// dimension, so it rides the catch-all lists.
		b.Target(policy.Target{policy.AnyOf{policy.AllOf{
			policy.MatchResourceID(pick(rng, equivResources)),
			policy.MatchRole(pick(rng, equivRoles)),
		}}})
	case 7:
		// Non-equality predicate: compileTarget rejects, interpreter child.
		b.Target(policy.Target{policy.AnyOf{policy.AllOf{policy.Match{
			Category: policy.CategorySubject,
			Name:     policy.AttrClearance,
			Function: policy.FnLessThan,
			Value:    policy.Integer(int64(rng.Intn(4))),
		}}}})
	}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		b.Rule(randomEquivRule(rng, i))
	}
	if rng.Intn(4) == 0 {
		effect := policy.EffectDeny
		if rng.Intn(2) == 0 {
			effect = policy.EffectPermit
		}
		b.Obligation(policy.RequireObligation(id+"-audit", effect, map[string]string{"sink": "wal"}))
	}
	return b.Build()
}

// randomEquivRoot builds a root set over policy children plus an occasional
// nested policy set (always an interpreter-fallback child).
func randomEquivRoot(rng *rand.Rand) *policy.PolicySet {
	b := policy.NewPolicySet("root").Combining(pick(rng, equivAlgs))
	if rng.Intn(8) == 0 {
		b.When(policy.MatchActionID("read"))
	}
	n := 3 + rng.Intn(6)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("child-%d", i)
		if rng.Intn(6) == 0 {
			b.Add(policy.NewPolicySet(id).
				Combining(policy.FirstApplicable).
				When(policy.MatchResourceID(pick(rng, equivResources))).
				Add(randomEquivPolicy(rng, id+"-inner")).
				Build())
			continue
		}
		b.Add(randomEquivPolicy(rng, id))
	}
	return b.Build()
}

func randomEquivRequest(rng *rand.Rand) *policy.Request {
	req := policy.NewRequest()
	if s := pick(rng, []string{"alice", "bob", "flaky", "carol", ""}); s != "" {
		req.Add(policy.CategorySubject, policy.AttrSubjectID, policy.String(s))
	}
	switch rng.Intn(8) {
	case 0: // no resource-id at all
	case 1:
		req.Add(policy.CategoryResource, policy.AttrResourceID, policy.String("res-unknown"))
	case 2: // multi-valued resource-id
		req.Add(policy.CategoryResource, policy.AttrResourceID,
			policy.String(pick(rng, equivResources)), policy.String(pick(rng, equivResources)))
	case 3: // cross-kind value keys
		req.Add(policy.CategoryResource, policy.AttrResourceID, policy.Integer(int64(rng.Intn(8))))
	default:
		req.Add(policy.CategoryResource, policy.AttrResourceID, policy.String(pick(rng, equivResources)))
	}
	req.Add(policy.CategoryAction, policy.AttrActionID, policy.String(pick(rng, equivActions)))
	if rng.Intn(2) == 0 {
		req.Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String(pick(rng, equivRoles)))
		if rng.Intn(4) == 0 {
			req.Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String(pick(rng, equivRoles)))
		}
	}
	if rng.Intn(3) == 0 {
		req.Add(policy.CategorySubject, policy.AttrClearance, policy.Integer(int64(rng.Intn(3))))
	}
	if rng.Intn(5) == 0 {
		req.Add(policy.CategoryResource, policy.AttrClassification, policy.String("restricted"))
	}
	return req
}

// interpret decides req with the plain tree-walking interpreter — no
// engine, no compiled program, no cache: the reference every equivalence
// test compares the engine against. resolver may be nil.
func interpret(root policy.Evaluable, req *policy.Request, at time.Time, resolver policy.Resolver) policy.Result {
	ec := policy.AcquireContext(context.Background(), req, at)
	if resolver != nil {
		ec.WithResolver(resolver)
	}
	res := root.Evaluate(ec)
	policy.ReleaseContext(ec)
	return res
}

// requireSameResult fails the test when two results differ in any
// observable dimension.
func requireSameResult(t *testing.T, req *policy.Request, got, want policy.Result) {
	t.Helper()
	if got.Decision != want.Decision || got.By != want.By {
		t.Fatalf("%v: compiled (%v by %q) != interpreter (%v by %q)",
			req, got.Decision, got.By, want.Decision, want.By)
	}
	ge, we := "", ""
	if got.Err != nil {
		ge = got.Err.Error()
	}
	if want.Err != nil {
		we = want.Err.Error()
	}
	if ge != we {
		t.Fatalf("%v: compiled err %q != interpreter err %q", req, ge, we)
	}
	if len(got.Obligations) != 0 || len(want.Obligations) != 0 {
		if !reflect.DeepEqual(got.Obligations, want.Obligations) {
			t.Fatalf("%v: compiled obligations %+v != interpreter %+v", req, got.Obligations, want.Obligations)
		}
	}
}

// TestCompiledEquivalentToInterpreter decides hundreds of randomized
// requests against randomized policy bases on a compiled engine and on the
// plain interpreter, sharing a resolver, and requires identical results
// throughout.
func TestCompiledEquivalentToInterpreter(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			root := randomEquivRoot(rng)
			if err := root.Validate(); err != nil {
				t.Fatalf("generated root invalid: %v", err)
			}
			compiled := New("equiv-compiled", WithResolver(flakyEquivResolver))
			if err := compiled.SetRoot(root); err != nil {
				t.Fatal(err)
			}
			if st := compiled.Stats(); st.RootChildren == 0 {
				t.Fatal("root did not compile: no program installed")
			}
			for i := 0; i < 300; i++ {
				req := randomEquivRequest(rng)
				requireSameResult(t, req, policy.Decide(ctx, compiled, req, equivAt),
					interpret(root, req, equivAt, flakyEquivResolver))
			}
			if st := compiled.Stats(); st.CompiledEvaluations != st.Evaluations {
				t.Fatalf("%d of %d evaluations took the compiled path", st.CompiledEvaluations, st.Evaluations)
			}
		})
	}
}

// TestCompiledMissBeatsInterpreter guards the §3 miss-path claim: on the
// workload generator's 1 000-policy base every child compiles, and an
// uncached decision through the compiled program is at least 5x cheaper
// than the plain interpreter's scan of every child (≈ 130x on a 2-CPU
// x86-64 box, ≈ 50x under -race; the bound leaves room for noisy runners).
func TestCompiledMissBeatsInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("times the miss path on a 1 000-policy base")
	}
	gen := workload.NewGenerator(workload.Config{Users: 100, Resources: 1000, Roles: 10, Seed: 24})
	dir := gen.Directory("idp")
	base := gen.PolicyBase("base")
	engine := New("compiled", WithResolver(dir))
	if err := engine.SetRoot(base); err != nil {
		t.Fatal(err)
	}
	if st := engine.Stats(); st.CompiledChildren != st.RootChildren {
		t.Fatalf("only %d/%d children compiled", st.CompiledChildren, st.RootChildren)
	}
	reqs := gen.Requests(500)
	perDecision := func(iters int, decide func(req *policy.Request)) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			decide(reqs[i%len(reqs)])
		}
		return time.Since(start) / time.Duration(iters)
	}
	ctx := context.Background()
	interp := perDecision(len(reqs), func(req *policy.Request) { interpret(base, req, equivAt, dir) })
	compiled := perDecision(20*len(reqs), func(req *policy.Request) { policy.Decide(ctx, engine, req, equivAt) })
	speedup := float64(interp) / float64(compiled)
	t.Logf("miss path on 1 000 policies: interpreter %v, compiled %v per decision (%.0fx)", interp, compiled, speedup)
	if speedup < 5 {
		t.Fatalf("compiled miss %v vs interpreter %v: %.1fx, want >= 5x", compiled, interp, speedup)
	}
}

// TestCompiledDeltaEquivalence churns a live compiled engine through random
// ApplyUpdate sequences and checks it against a from-scratch interpreter
// rebuild of the same model after every few operations: the delta-patched
// program must stay equivalent to full recompilation and to the
// interpreter.
func TestCompiledDeltaEquivalence(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			model := make(map[string]policy.Evaluable)
			for i := 0; i < 6; i++ {
				p := churnPolicy(fmt.Sprintf("res-%d", i), rng.Intn(4))
				model[p.ID] = p
			}
			guard := catchAllPolicy(0)
			model[guard.ID] = guard

			live := New("delta-compiled")
			if err := live.SetRoot(modelRoot(model)); err != nil {
				t.Fatal(err)
			}
			version := 1
			for op := 0; op < 120; op++ {
				version++
				var u Update
				switch rng.Intn(10) {
				case 6:
					p := catchAllPolicy(version)
					u = Update{ID: p.ID, Child: p}
				case 7:
					p := roamingPolicy(version)
					u = Update{ID: p.ID, Child: p}
				case 8, 9:
					if len(model) > 2 {
						ids := make([]string, 0, len(model))
						for id := range model {
							ids = append(ids, id)
						}
						u = Update{ID: pick(rng, ids)}
						break
					}
					fallthrough
				default:
					p := churnPolicy(fmt.Sprintf("res-%d", rng.Intn(10)), version)
					u = Update{ID: p.ID, Child: p}
				}
				if err := live.ApplyUpdate(u); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				if u.Child == nil {
					delete(model, u.ID)
				} else {
					model[u.ID] = u.Child
				}
				if op%10 != 0 {
					continue
				}
				ref := modelRoot(model)
				if err := ref.Validate(); err != nil {
					t.Fatalf("op %d: rebuild: %v", op, err)
				}
				for _, req := range churnRequests(10) {
					requireSameResult(t, req,
						policy.Decide(ctx, live, req, equivAt),
						interpret(ref, req, equivAt, nil))
				}
			}
			st := live.Stats()
			if st.Updates != 120 {
				t.Fatalf("updates = %d, want 120", st.Updates)
			}
			if st.Compiles < 121 {
				t.Fatalf("compiles = %d, want one per install and patch", st.Compiles)
			}
			if st.RootChildren != int64(len(model)) {
				t.Fatalf("program tracks %d children, model has %d", st.RootChildren, len(model))
			}
		})
	}
}

// TestStaticObligationsRejectsNilLiteral pins the defensive branch fuzzing
// motivated: a typed-nil *Literal assignment must report "not static", not
// dereference.
func TestStaticObligationsRejectsNilLiteral(t *testing.T) {
	obs := []policy.Obligation{{
		ID:          "broken",
		FulfillOn:   policy.EffectPermit,
		Assignments: []policy.Assignment{{Name: "x", Expr: (*policy.Literal)(nil)}},
	}}
	if _, ok := policy.StaticObligations(obs, policy.EffectPermit); ok {
		t.Fatal("nil *Literal assignment reported as static")
	}
	// An obligation for the other effect is skipped before inspection.
	if got, ok := policy.StaticObligations(obs, policy.EffectDeny); !ok || got != nil {
		t.Fatalf("other-effect obligations = %v, %v; want nil, true", got, ok)
	}
}

// fuzzByteReader streams fuzz input bytes, yielding zeros once exhausted.
type fuzzByteReader struct {
	data []byte
	pos  int
}

func (r *fuzzByteReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func fuzzValue(b byte) policy.Value {
	switch b % 4 {
	case 0:
		return policy.String(fmt.Sprintf("res-%d", b%8))
	case 1:
		return policy.String("read")
	case 2:
		return policy.Integer(int64(b % 5))
	default:
		return policy.Value{} // invalid kind: Equal is false against anything
	}
}

func fuzzMatch(r *fuzzByteReader) policy.Match {
	names := []string{policy.AttrResourceID, policy.AttrActionID, policy.AttrSubjectRole, policy.AttrClearance}
	fns := []string{"", policy.FnEqual, policy.FnLessThan, "bogus"}
	return policy.Match{
		Category: policy.Category(r.next() % 5), // includes the invalid zero category
		Name:     names[int(r.next())%len(names)],
		Function: fns[int(r.next())%len(fns)],
		Value:    fuzzValue(r.next()),
	}
}

// fuzzTarget produces structurally odd targets: empty groups, empty
// alternatives, empty conjunctions, mixed attributes and bogus predicates.
func fuzzTarget(r *fuzzByteReader) policy.Target {
	ngroups := int(r.next() % 3)
	if ngroups == 0 {
		return nil
	}
	t := make(policy.Target, 0, ngroups)
	for g := 0; g < ngroups; g++ {
		nalts := int(r.next() % 3)
		any := make(policy.AnyOf, 0, nalts)
		for a := 0; a < nalts; a++ {
			nm := int(r.next() % 3)
			all := make(policy.AllOf, 0, nm)
			for m := 0; m < nm; m++ {
				all = append(all, fuzzMatch(r))
			}
			any = append(any, all)
		}
		t = append(t, any)
	}
	return t
}

func fuzzChild(r *fuzzByteReader, id string) policy.Evaluable {
	if r.next()%8 == 0 {
		return nil // compileProgram must reject nil children without panicking
	}
	p := &policy.Policy{
		ID:        id,
		Version:   "1",
		Combining: policy.Algorithm(r.next() % 8), // includes invalid values
		Target:    fuzzTarget(r),
	}
	nrules := int(r.next() % 3)
	for i := 0; i < nrules; i++ {
		rule := &policy.Rule{
			ID:     fmt.Sprintf("%s-r%d", id, i),
			Effect: policy.Effect(r.next() % 3), // includes the invalid zero effect
			Target: fuzzTarget(r),
		}
		switch r.next() % 4 {
		case 0:
			rule.Condition = policy.AttrEquals(policy.CategorySubject, policy.AttrClearance, policy.Integer(int64(r.next()%3)))
		case 1:
			rule.Obligations = []policy.Obligation{policy.RequireObligation(rule.ID+"-ob", policy.EffectPermit, map[string]string{"k": "v"})}
		}
		p.Rules = append(p.Rules, rule)
	}
	return p
}

func fuzzRoot(data []byte) *policy.PolicySet {
	r := &fuzzByteReader{data: data}
	root := &policy.PolicySet{
		ID:        "root",
		Version:   "1",
		Combining: policy.Algorithm(r.next() % 8),
		Target:    fuzzTarget(r),
	}
	if r.next()%8 == 0 {
		root.Obligations = []policy.Obligation{policy.RequireObligation("root-ob", policy.EffectDeny, map[string]string{"k": "v"})}
	}
	n := int(r.next() % 5)
	for i := 0; i < n; i++ {
		root.Children = append(root.Children, fuzzChild(r, fmt.Sprintf("c%d", i)))
	}
	return root
}

// FuzzCompile feeds arbitrary (frequently invalid) policy structures
// straight through the compiler: compileProgram must never panic, and
// whenever the base validates, the engine's decisions must agree with the
// plain interpreter's.
func FuzzCompile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{7, 0, 0, 3, 1, 1, 2, 2, 3, 3, 0, 1, 2, 250, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{4, 2, 2, 2, 1, 0, 3, 9, 27, 81, 243, 217, 139, 41, 123, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		root := fuzzRoot(data)
		prog := compileProgram(root) // must not panic, compilable or not
		if root.Validate() != nil {
			return // invalid bases only exercise the no-panic guarantee
		}
		compiled := New("fuzz-compiled")
		if err := compiled.SetRoot(root); err != nil {
			t.Fatalf("validated root rejected: %v", err)
		}
		if prog == nil && compiled.Stats().RootChildren != 0 {
			t.Fatal("engine installed a program the direct compile refused")
		}
		ctx := context.Background()
		r := &fuzzByteReader{data: data}
		for i := 0; i < 3; i++ {
			req := policy.NewAccessRequest("u", fmt.Sprintf("res-%d", r.next()%8), []string{"read", "write"}[int(r.next())%2])
			if r.next()%2 == 0 {
				req.Add(policy.CategorySubject, policy.AttrClearance, policy.Integer(int64(r.next()%5)))
			}
			requireSameResult(t, req, policy.Decide(ctx, compiled, req, equivAt), interpret(root, req, equivAt, nil))
		}
	})
}

// TestFallbackEvaluationsCountsMissesNotChildren: a miss that evaluates
// interpretive-fallback children adds one to FallbackEvaluations however
// many of them it walks; a miss that reaches none adds nothing; and
// InterpretedEvaluations (no compiled program at all) stays untouched.
func TestFallbackEvaluationsCountsMissesNotChildren(t *testing.T) {
	root := policy.NewPolicySet("root").Combining(policy.DenyOverrides)
	root.Add(policy.NewPolicy("rec-1").When(policy.MatchResourceID("rec-1")).
		Rule(policy.Permit("all").Build()).Build())
	// Two conditional policies on rec-2 only: conditions keep them off the
	// compiled path.
	for _, id := range []string{"veto-a", "veto-b"} {
		root.Add(policy.NewPolicy(id).When(policy.MatchResourceID("rec-2")).
			Rule(policy.Deny("low").If(policy.Call(policy.FnLessThan,
				policy.SubjectAttr(policy.AttrClearance), policy.Lit(policy.Integer(1)))).Build()).Build())
	}
	engine := New("fallback")
	if err := engine.SetRoot(root.Build()); err != nil {
		t.Fatal(err)
	}
	if st := engine.Stats(); st.RootChildren != 3 || st.CompiledChildren != 1 {
		t.Fatalf("program has %d of %d children compiled, want 1 of 3", st.CompiledChildren, st.RootChildren)
	}
	ctx := context.Background()
	policy.Decide(ctx, engine, policy.NewAccessRequest("alice", "rec-1", "read"), time.Time{})
	if st := engine.Stats(); st.FallbackEvaluations != 0 {
		t.Errorf("compiled-only miss counted %d fallback evaluations", st.FallbackEvaluations)
	}
	reqs := []*policy.Request{
		policy.NewAccessRequest("bob", "rec-2", "read").Add(policy.CategorySubject, policy.AttrClearance, policy.Integer(5)),
		policy.NewAccessRequest("carol", "rec-2", "read").Add(policy.CategorySubject, policy.AttrClearance, policy.Integer(5)),
	}
	policy.Decide(ctx, engine, reqs[0], time.Time{})
	policy.DecideBatch(ctx, engine, reqs[1:], time.Time{})
	st := engine.Stats()
	if st.FallbackEvaluations != 2 {
		t.Errorf("FallbackEvaluations = %d after two misses walking two fallback children each, want 2", st.FallbackEvaluations)
	}
	if st.InterpretedEvaluations != 0 || st.CompiledEvaluations != 3 {
		t.Errorf("compiled/interpreted = %d/%d, want 3/0", st.CompiledEvaluations, st.InterpretedEvaluations)
	}
}
