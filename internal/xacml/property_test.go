package xacml

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/policy"
)

// Property-based round-trip testing: randomly generated policies must
// survive both codecs with their decision semantics intact, and both
// encodings must be fixpoints (re-encoding a decoded document reproduces
// the same bytes). The generator covers every encodable construct: all six
// value kinds, nested policy sets, disjunctive/conjunctive targets, the
// expression grammar, and obligations with assignments.

// gen is a seeded policy generator with a counter for unique entity IDs.
type gen struct {
	r *rand.Rand
	n int
}

func newGen(seed int64) *gen { return &gen{r: rand.New(rand.NewSource(seed))} }

func (g *gen) id(prefix string) string {
	g.n++
	return fmt.Sprintf("%s-%d", prefix, g.n)
}

func (g *gen) pick(n int) int { return g.r.Intn(n) }

func (g *gen) chance(p float64) bool { return g.r.Float64() < p }

// genText draws strings over a vocabulary that includes XML- and JSON-hostile
// characters. Carriage returns and other control characters are excluded
// deliberately: XML 1.0 normalises \r to \n and replaces non-whitespace
// control characters, so they are unrepresentable by spec, not by bug.
func (g *gen) genText() string {
	const alphabet = "ab<&>\"' \tZπ日_-.:/\n"
	runes := []rune(alphabet)
	n := g.pick(12)
	out := make([]rune, n)
	for i := range out {
		out[i] = runes[g.pick(len(runes))]
	}
	return string(out)
}

var genAttrNames = []string{
	policy.AttrSubjectID,
	policy.AttrSubjectRole,
	policy.AttrResourceID,
	policy.AttrActionID,
	"dept",
	"clearance",
	"tag",
}

var genCategories = []policy.Category{
	policy.CategorySubject,
	policy.CategoryResource,
	policy.CategoryAction,
	policy.CategoryEnvironment,
}

func (g *gen) genValue() policy.Value {
	switch g.pick(6) {
	case 0:
		return policy.String(g.genText())
	case 1:
		return policy.Integer(g.r.Int63n(2001) - 1000)
	case 2:
		if g.chance(0.05) {
			return policy.Double(math.Inf(1))
		}
		return policy.Double(float64(g.r.Int63n(1_000_000)) / 128)
	case 3:
		return policy.Boolean(g.chance(0.5))
	case 4:
		base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		return policy.Time(base.Add(time.Duration(g.r.Int63n(int64(365 * 24 * time.Hour)))))
	default:
		return policy.Duration(time.Duration(g.r.Int63n(int64(72 * time.Hour))))
	}
}

// genComparable draws a value of a kind the ordering functions accept.
func (g *gen) genComparable() policy.Value {
	switch g.pick(3) {
	case 0:
		return policy.Integer(g.r.Int63n(100))
	case 1:
		return policy.Double(float64(g.r.Int63n(1000)) / 8)
	default:
		return policy.String(g.genText())
	}
}

func (g *gen) genMatch() policy.Match {
	m := policy.Match{
		Category: genCategories[g.pick(len(genCategories))],
		Name:     genAttrNames[g.pick(len(genAttrNames))],
		Value:    g.genValue(),
	}
	switch g.pick(4) {
	case 0:
		m.Function = policy.FnEqual
	case 1:
		m.Function = "" // codec must preserve the implied-equality default
	case 2:
		m.Function = policy.FnStringStartsWith
		m.Value = policy.String(g.genText())
	case 3:
		m.Function = policy.FnGreaterThan
		m.Value = g.genComparable()
	}
	return m
}

func (g *gen) genTarget() policy.Target {
	nGroups := g.pick(3) // 0 = catch-all target
	t := make(policy.Target, 0, nGroups)
	for i := 0; i < nGroups; i++ {
		nAlts := 1 + g.pick(2)
		any := make(policy.AnyOf, 0, nAlts)
		for j := 0; j < nAlts; j++ {
			nMatches := 1 + g.pick(2)
			all := make(policy.AllOf, 0, nMatches)
			for k := 0; k < nMatches; k++ {
				all = append(all, g.genMatch())
			}
			any = append(any, all)
		}
		t = append(t, any)
	}
	if len(t) == 0 {
		return nil
	}
	return t
}

// genBoolExpr produces a random boolean expression tree of bounded depth.
// Some generated trees fail at evaluation time (type mismatches, non-
// singleton bags); those must fail identically on both sides of a codec.
func (g *gen) genBoolExpr(depth int) policy.Expression {
	if depth <= 0 {
		switch g.pick(3) {
		case 0:
			return policy.Lit(policy.Boolean(g.chance(0.5)))
		case 1:
			return policy.AttrEquals(
				genCategories[g.pick(len(genCategories))],
				genAttrNames[g.pick(len(genAttrNames))],
				g.genValue())
		default:
			return policy.AttrContains(
				genCategories[g.pick(len(genCategories))],
				genAttrNames[g.pick(len(genAttrNames))],
				g.genValue())
		}
	}
	switch g.pick(5) {
	case 0:
		return policy.And(g.genBoolExpr(depth-1), g.genBoolExpr(depth-1))
	case 1:
		return policy.Or(g.genBoolExpr(depth-1), g.genBoolExpr(depth-1))
	case 2:
		return policy.Not(g.genBoolExpr(depth - 1))
	case 3:
		v := g.genComparable()
		return policy.Call(policy.FnGreaterThan,
			policy.Call(policy.FnOneAndOnly, policy.Attr(
				genCategories[g.pick(len(genCategories))],
				genAttrNames[g.pick(len(genAttrNames))])),
			policy.Lit(v))
	default:
		vals := make([]policy.Value, 1+g.pick(3))
		for i := range vals {
			vals[i] = g.genValue()
		}
		return policy.Call(policy.FnIsIn,
			policy.Lit(g.genValue()),
			&policy.BagLiteral{Values: policy.BagOf(vals...)})
	}
}

func (g *gen) genObligation() policy.Obligation {
	ob := policy.Obligation{
		ID:        g.id("ob"),
		FulfillOn: policy.EffectPermit,
	}
	if g.chance(0.5) {
		ob.FulfillOn = policy.EffectDeny
	}
	for i := 0; i < g.pick(3); i++ {
		ob.Assignments = append(ob.Assignments, policy.Assignment{
			Name: g.id("attr"),
			Expr: policy.Lit(g.genValue()),
		})
	}
	return ob
}

var ruleAlgorithms = []policy.Algorithm{
	policy.DenyOverrides,
	policy.PermitOverrides,
	policy.FirstApplicable,
	policy.DenyUnlessPermit,
	policy.PermitUnlessDeny,
}

var setAlgorithms = append(ruleAlgorithms[:len(ruleAlgorithms):len(ruleAlgorithms)],
	policy.OnlyOneApplicable)

func (g *gen) genRule() *policy.Rule {
	r := &policy.Rule{
		ID:          g.id("rule"),
		Description: g.genText(),
		Effect:      policy.EffectPermit,
		Target:      g.genTarget(),
	}
	if g.chance(0.5) {
		r.Effect = policy.EffectDeny
	}
	if g.chance(0.6) {
		r.Condition = g.genBoolExpr(1 + g.pick(2))
	}
	if g.chance(0.3) {
		r.Obligations = append(r.Obligations, g.genObligation())
	}
	return r
}

func (g *gen) genPolicy() *policy.Policy {
	p := &policy.Policy{
		ID:          g.id("pol"),
		Version:     fmt.Sprintf("%d.%d", g.pick(3), g.pick(10)),
		Description: g.genText(),
		Target:      g.genTarget(),
		Combining:   ruleAlgorithms[g.pick(len(ruleAlgorithms))],
	}
	if g.chance(0.5) {
		p.Issuer = g.id("issuer")
	}
	for i := 0; i < 1+g.pick(4); i++ {
		p.Rules = append(p.Rules, g.genRule())
	}
	if g.chance(0.3) {
		p.Obligations = append(p.Obligations, g.genObligation())
	}
	return p
}

func (g *gen) genPolicySet(depth int) *policy.PolicySet {
	s := &policy.PolicySet{
		ID:          g.id("set"),
		Description: g.genText(),
		Target:      g.genTarget(),
		Combining:   setAlgorithms[g.pick(len(setAlgorithms))],
	}
	for i := 0; i < 1+g.pick(3); i++ {
		if depth > 0 && g.chance(0.3) {
			s.Children = append(s.Children, g.genPolicySet(depth-1))
		} else {
			s.Children = append(s.Children, g.genPolicy())
		}
	}
	if g.chance(0.2) {
		s.Obligations = append(s.Obligations, g.genObligation())
	}
	return s
}

func (g *gen) genRequest() *policy.Request {
	req := policy.NewRequest()
	for _, cat := range genCategories {
		for i := 0; i < g.pick(4); i++ {
			name := genAttrNames[g.pick(len(genAttrNames))]
			vals := make([]policy.Value, 1+g.pick(2))
			for j := range vals {
				vals[j] = g.genValue()
			}
			req.Add(cat, name, vals...)
		}
	}
	return req
}

// genResult draws a decision result as an engine could produce it.
func (g *gen) genResult() policy.Result {
	decisions := []policy.Decision{policy.DecisionPermit, policy.DecisionDeny, policy.DecisionNotApplicable, policy.DecisionIndeterminate}
	res := policy.Result{Decision: decisions[g.pick(len(decisions))]}
	if g.chance(0.7) {
		res.By = g.id("policy") + "/" + g.genText()
	}
	if res.Decision == policy.DecisionIndeterminate {
		res.Err = errors.New("eval: " + g.genText())
	}
	if g.chance(0.2) {
		res.Degraded = true
		res.StaleFor = time.Duration(g.pick(5000)) * time.Millisecond
	}
	for i := g.pick(3); i > 0; i-- {
		ob := policy.FulfilledObligation{ID: g.id("ob")}
		for j := g.pick(4); j > 0; j-- {
			if ob.Attributes == nil {
				ob.Attributes = make(map[string]policy.Value)
			}
			ob.Attributes[genAttrNames[g.pick(len(genAttrNames))]+g.genText()] = g.genValue()
		}
		res.Obligations = append(res.Obligations, ob)
	}
	return res
}

// resultsEquivalent compares two results for semantic equality, tolerating
// different error texts behind an Indeterminate (errors do not round-trip
// verbatim; the decision and decider must).
func resultsEquivalent(a, b policy.Result) string {
	if a.Decision != b.Decision {
		return fmt.Sprintf("decision %v vs %v", a.Decision, b.Decision)
	}
	if a.By != b.By {
		return fmt.Sprintf("decider %q vs %q", a.By, b.By)
	}
	if len(a.Obligations) != len(b.Obligations) {
		return fmt.Sprintf("obligation count %d vs %d", len(a.Obligations), len(b.Obligations))
	}
	for i := range a.Obligations {
		oa, ob := a.Obligations[i], b.Obligations[i]
		if oa.ID != ob.ID {
			return fmt.Sprintf("obligation %d id %q vs %q", i, oa.ID, ob.ID)
		}
		if len(oa.Attributes) != len(ob.Attributes) {
			return fmt.Sprintf("obligation %s attribute count", oa.ID)
		}
		for name, va := range oa.Attributes {
			vb, ok := ob.Attributes[name]
			if !ok || !va.Equal(vb) {
				return fmt.Sprintf("obligation %s attribute %s: %v vs %v", oa.ID, name, va, vb)
			}
		}
	}
	return ""
}

func TestPropertyCodecRoundTripPreservesDecisions(t *testing.T) {
	const (
		nPolicies = 60
		nRequests = 25
	)
	at := time.Date(2026, 6, 12, 9, 30, 0, 0, time.UTC)
	for seed := int64(0); seed < nPolicies; seed++ {
		g := newGen(seed)
		orig := g.genPolicySet(2)
		if err := orig.Validate(); err != nil {
			t.Fatalf("seed %d: generator produced invalid policy set: %v", seed, err)
		}

		xmlData, err := MarshalXML(orig)
		if err != nil {
			t.Fatalf("seed %d: MarshalXML: %v", seed, err)
		}
		fromXML, err := UnmarshalXML(xmlData)
		if err != nil {
			t.Fatalf("seed %d: UnmarshalXML: %v\n%s", seed, err, xmlData)
		}
		jsonData, err := MarshalJSON(orig)
		if err != nil {
			t.Fatalf("seed %d: MarshalJSON: %v", seed, err)
		}
		compact, err := MarshalCompactJSON(orig)
		if err != nil {
			t.Fatalf("seed %d: MarshalCompactJSON: %v", seed, err)
		}
		var compacted bytes.Buffer
		if err := json.Compact(&compacted, jsonData); err != nil {
			t.Fatalf("seed %d: compact MarshalJSON: %v", seed, err)
		}
		if !bytes.Equal(compacted.Bytes(), compact) {
			t.Fatalf("seed %d: MarshalCompactJSON is not the compacted MarshalJSON:\ncompacted: %s\ncompact:   %s", seed, compacted.Bytes(), compact)
		}
		fromJSON, err := UnmarshalJSON(jsonData)
		if err != nil {
			t.Fatalf("seed %d: UnmarshalJSON: %v\n%s", seed, err, jsonData)
		}

		if err := fromXML.Validate(); err != nil {
			t.Fatalf("seed %d: XML-decoded set invalid: %v", seed, err)
		}
		if err := fromJSON.Validate(); err != nil {
			t.Fatalf("seed %d: JSON-decoded set invalid: %v", seed, err)
		}

		for i := 0; i < nRequests; i++ {
			req := g.genRequest()
			want := orig.Evaluate(policy.NewContextAt(req, at))
			gotXML := fromXML.Evaluate(policy.NewContextAt(req, at))
			gotJSON := fromJSON.Evaluate(policy.NewContextAt(req, at))
			if diff := resultsEquivalent(want, gotXML); diff != "" {
				t.Fatalf("seed %d request %d: XML decode diverges: %s\nrequest: %s\ndoc:\n%s",
					seed, i, diff, req, xmlData)
			}
			if diff := resultsEquivalent(want, gotJSON); diff != "" {
				t.Fatalf("seed %d request %d: JSON decode diverges: %s\nrequest: %s\ndoc:\n%s",
					seed, i, diff, req, jsonData)
			}
		}
	}
}

func TestPropertyCodecFixpoint(t *testing.T) {
	// Re-encoding a decoded document must reproduce the same bytes: the
	// codecs are deterministic and lose nothing the encoder can express.
	for seed := int64(100); seed < 130; seed++ {
		g := newGen(seed)
		orig := g.genPolicySet(2)

		xml1, err := MarshalXML(orig)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		decoded, err := UnmarshalXML(xml1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		xml2, err := MarshalXML(decoded)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(xml1, xml2) {
			t.Fatalf("seed %d: XML encoding is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", seed, xml1, xml2)
		}

		json1, err := MarshalJSON(orig)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		decodedJ, err := UnmarshalJSON(json1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		json2, err := MarshalJSON(decodedJ)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(json1, json2) {
			t.Fatalf("seed %d: JSON encoding is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", seed, json1, json2)
		}
	}
}

func TestPropertyRequestRoundTrip(t *testing.T) {
	for seed := int64(200); seed < 260; seed++ {
		g := newGen(seed)
		req := g.genRequest()
		xmlData, err := MarshalRequestXML(req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fromXML, err := UnmarshalRequestXML(xmlData)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, xmlData)
		}
		if fromXML.CacheKey() != req.CacheKey() {
			t.Fatalf("seed %d: XML request diverges:\n got %q\nwant %q\ndoc:\n%s",
				seed, fromXML.CacheKey(), req.CacheKey(), xmlData)
		}
		// Both encoder generations, each checked against encoding/xml.
		checkRequestDocument(t, xmlData)
		checkRequestDocument(t, oracleMarshalRequest(req, true))
		jsonData, err := MarshalRequestJSON(req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fromJSON, err := UnmarshalRequestJSON(jsonData)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fromJSON.CacheKey() != req.CacheKey() {
			t.Fatalf("seed %d: JSON request diverges", seed)
		}
	}
}

func TestPropertyResponseRoundTrip(t *testing.T) {
	for seed := int64(400); seed < 460; seed++ {
		res := newGen(seed).genResult()
		compact, err := MarshalResponseXML(res)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, doc := range [][]byte{compact, oracleMarshalResponse(res, true)} {
			got, err := UnmarshalResponseXML(doc)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, doc)
			}
			if diff := resultsEquivalent(res, got); diff != "" {
				t.Fatalf("seed %d: %s\n%s", seed, diff, doc)
			}
			if got.Degraded != res.Degraded || (res.Degraded && got.StaleFor != res.StaleFor) {
				t.Fatalf("seed %d: degraded marker diverges: %+v vs %+v", seed, got, res)
			}
			if (got.Err == nil) != (res.Err == nil) || (res.Err != nil && got.Err.Error() != res.Err.Error()) {
				t.Fatalf("seed %d: status message diverges: %v vs %v", seed, got.Err, res.Err)
			}
			checkResponseDocument(t, doc)
		}
	}
}
