package xacml

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/policy"
)

// The JSON encoding is a compact alternative to the XML dialect, used by the
// HTTP binding. It is a tagged-union scheme: exactly one field of each union
// struct is set.

type jsonValue struct {
	Kind string `json:"kind"`
	Text string `json:"value"`
}

func toJSONValue(v policy.Value) jsonValue {
	return jsonValue{Kind: v.Kind().String(), Text: v.String()}
}

func fromJSONValue(jv jsonValue) (policy.Value, error) {
	kind, err := policy.KindFromString(jv.Kind)
	if err != nil {
		return policy.Value{}, err
	}
	return policy.ParseValue(kind, jv.Text)
}

type jsonDesignator struct {
	Category      string `json:"category"`
	Attribute     string `json:"attribute"`
	MustBePresent bool   `json:"mustBePresent,omitempty"`
}

type jsonApply struct {
	Function string     `json:"function"`
	Args     []jsonExpr `json:"args"`
}

type jsonExpr struct {
	Value      *jsonValue      `json:"value,omitempty"`
	Bag        []jsonValue     `json:"bag,omitempty"`
	Designator *jsonDesignator `json:"attr,omitempty"`
	Apply      *jsonApply      `json:"apply,omitempty"`
}

func toJSONExpr(e policy.Expression) (jsonExpr, error) {
	switch v := e.(type) {
	case *policy.Literal:
		jv := toJSONValue(v.Value)
		return jsonExpr{Value: &jv}, nil
	case *policy.BagLiteral:
		bag := make([]jsonValue, len(v.Values))
		for i, val := range v.Values {
			bag[i] = toJSONValue(val)
		}
		if bag == nil {
			bag = []jsonValue{}
		}
		return jsonExpr{Bag: bag}, nil
	case *policy.Designator:
		return jsonExpr{Designator: &jsonDesignator{
			Category:      v.Category.String(),
			Attribute:     v.Name,
			MustBePresent: v.MustBePresent,
		}}, nil
	case *policy.Apply:
		args := make([]jsonExpr, len(v.Args))
		for i, a := range v.Args {
			ja, err := toJSONExpr(a)
			if err != nil {
				return jsonExpr{}, err
			}
			args[i] = ja
		}
		return jsonExpr{Apply: &jsonApply{Function: v.Function, Args: args}}, nil
	default:
		return jsonExpr{}, fmt.Errorf("xacml: cannot marshal expression %T", e)
	}
}

func fromJSONExpr(je jsonExpr) (policy.Expression, error) {
	switch {
	case je.Value != nil:
		v, err := fromJSONValue(*je.Value)
		if err != nil {
			return nil, err
		}
		return policy.Lit(v), nil
	case je.Bag != nil:
		bag := make(policy.Bag, len(je.Bag))
		for i, jv := range je.Bag {
			v, err := fromJSONValue(jv)
			if err != nil {
				return nil, err
			}
			bag[i] = v
		}
		return &policy.BagLiteral{Values: bag}, nil
	case je.Designator != nil:
		cat, err := policy.CategoryFromString(je.Designator.Category)
		if err != nil {
			return nil, err
		}
		return &policy.Designator{
			Category:      cat,
			Name:          je.Designator.Attribute,
			MustBePresent: je.Designator.MustBePresent,
		}, nil
	case je.Apply != nil:
		args := make([]policy.Expression, len(je.Apply.Args))
		for i, ja := range je.Apply.Args {
			a, err := fromJSONExpr(ja)
			if err != nil {
				return nil, err
			}
			args[i] = a
		}
		return &policy.Apply{Function: je.Apply.Function, Args: args}, nil
	default:
		return nil, errors.New("xacml: empty expression union")
	}
}

type jsonMatch struct {
	Category  string    `json:"category"`
	Attribute string    `json:"attribute"`
	Function  string    `json:"function,omitempty"`
	Value     jsonValue `json:"value"`
}

// jsonTarget preserves the full XACML target structure: the outer level is a
// conjunction of AnyOf groups, each group a disjunction of AllOf rows, each
// row a conjunction of matches.
type jsonTarget [][][]jsonMatch

func toJSONTarget(t policy.Target) jsonTarget {
	out := make(jsonTarget, 0, len(t))
	for _, anyOf := range t {
		group := make([][]jsonMatch, 0, len(anyOf))
		for _, allOf := range anyOf {
			row := make([]jsonMatch, len(allOf))
			for i, m := range allOf {
				row[i] = jsonMatch{
					Category:  m.Category.String(),
					Attribute: m.Name,
					Function:  m.Function,
					Value:     toJSONValue(m.Value),
				}
			}
			group = append(group, row)
		}
		out = append(out, group)
	}
	return out
}

func fromJSONTarget(jt jsonTarget) (policy.Target, error) {
	if len(jt) == 0 {
		return nil, nil
	}
	target := make(policy.Target, 0, len(jt))
	for _, group := range jt {
		anyOf := make(policy.AnyOf, 0, len(group))
		for _, row := range group {
			allOf := make(policy.AllOf, len(row))
			for i, jm := range row {
				cat, err := policy.CategoryFromString(jm.Category)
				if err != nil {
					return nil, err
				}
				v, err := fromJSONValue(jm.Value)
				if err != nil {
					return nil, err
				}
				allOf[i] = policy.Match{Category: cat, Name: jm.Attribute, Function: jm.Function, Value: v}
			}
			anyOf = append(anyOf, allOf)
		}
		target = append(target, anyOf)
	}
	return target, nil
}

type jsonAssignment struct {
	Name string   `json:"name"`
	Expr jsonExpr `json:"expr"`
}

type jsonObligation struct {
	ID          string           `json:"id"`
	FulfillOn   string           `json:"fulfillOn"`
	Assignments []jsonAssignment `json:"assignments,omitempty"`
}

func toJSONObligations(obs []policy.Obligation) ([]jsonObligation, error) {
	out := make([]jsonObligation, 0, len(obs))
	for _, ob := range obs {
		jo := jsonObligation{ID: ob.ID, FulfillOn: ob.FulfillOn.String()}
		for _, as := range ob.Assignments {
			je, err := toJSONExpr(as.Expr)
			if err != nil {
				return nil, err
			}
			jo.Assignments = append(jo.Assignments, jsonAssignment{Name: as.Name, Expr: je})
		}
		out = append(out, jo)
	}
	return out, nil
}

func fromJSONObligations(jos []jsonObligation) ([]policy.Obligation, error) {
	var out []policy.Obligation
	for _, jo := range jos {
		ob := policy.Obligation{ID: jo.ID}
		switch jo.FulfillOn {
		case "Permit":
			ob.FulfillOn = policy.EffectPermit
		case "Deny":
			ob.FulfillOn = policy.EffectDeny
		default:
			return nil, fmt.Errorf("xacml: obligation %s: invalid fulfillOn %q", jo.ID, jo.FulfillOn)
		}
		for _, ja := range jo.Assignments {
			e, err := fromJSONExpr(ja.Expr)
			if err != nil {
				return nil, err
			}
			ob.Assignments = append(ob.Assignments, policy.Assignment{Name: ja.Name, Expr: e})
		}
		out = append(out, ob)
	}
	return out, nil
}

type jsonRule struct {
	ID          string           `json:"id"`
	Description string           `json:"description,omitempty"`
	Effect      string           `json:"effect"`
	Target      jsonTarget       `json:"target,omitempty"`
	Condition   *jsonExpr        `json:"condition,omitempty"`
	Obligations []jsonObligation `json:"obligations,omitempty"`
}

type jsonPolicy struct {
	ID          string           `json:"id"`
	Version     string           `json:"version,omitempty"`
	Description string           `json:"description,omitempty"`
	Issuer      string           `json:"issuer,omitempty"`
	Combining   string           `json:"combining"`
	Target      jsonTarget       `json:"target,omitempty"`
	Rules       []jsonRule       `json:"rules"`
	Obligations []jsonObligation `json:"obligations,omitempty"`
}

type jsonPolicySet struct {
	ID          string           `json:"id"`
	Version     string           `json:"version,omitempty"`
	Description string           `json:"description,omitempty"`
	Issuer      string           `json:"issuer,omitempty"`
	Combining   string           `json:"combining"`
	Target      jsonTarget       `json:"target,omitempty"`
	Children    []jsonChild      `json:"children"`
	Obligations []jsonObligation `json:"obligations,omitempty"`
}

type jsonChild struct {
	Policy    *jsonPolicy    `json:"policy,omitempty"`
	PolicySet *jsonPolicySet `json:"policySet,omitempty"`
}

func toJSONPolicy(p *policy.Policy) (*jsonPolicy, error) {
	jp := &jsonPolicy{
		ID:          p.ID,
		Version:     p.Version,
		Description: p.Description,
		Issuer:      p.Issuer,
		Combining:   p.Combining.String(),
		Target:      toJSONTarget(p.Target),
		Rules:       make([]jsonRule, 0, len(p.Rules)),
	}
	obs, err := toJSONObligations(p.Obligations)
	if err != nil {
		return nil, err
	}
	jp.Obligations = obs
	for _, r := range p.Rules {
		jr := jsonRule{
			ID:          r.ID,
			Description: r.Description,
			Effect:      r.Effect.String(),
			Target:      toJSONTarget(r.Target),
		}
		if r.Condition != nil {
			je, err := toJSONExpr(r.Condition)
			if err != nil {
				return nil, err
			}
			jr.Condition = &je
		}
		robs, err := toJSONObligations(r.Obligations)
		if err != nil {
			return nil, err
		}
		jr.Obligations = robs
		jp.Rules = append(jp.Rules, jr)
	}
	return jp, nil
}

func fromJSONPolicy(jp *jsonPolicy) (*policy.Policy, error) {
	alg, err := policy.AlgorithmFromString(jp.Combining)
	if err != nil {
		return nil, err
	}
	target, err := fromJSONTarget(jp.Target)
	if err != nil {
		return nil, err
	}
	obs, err := fromJSONObligations(jp.Obligations)
	if err != nil {
		return nil, err
	}
	p := &policy.Policy{
		ID:          jp.ID,
		Version:     jp.Version,
		Description: jp.Description,
		Issuer:      jp.Issuer,
		Combining:   alg,
		Target:      target,
		Obligations: obs,
	}
	for _, jr := range jp.Rules {
		r := &policy.Rule{ID: jr.ID, Description: jr.Description}
		switch jr.Effect {
		case "Permit":
			r.Effect = policy.EffectPermit
		case "Deny":
			r.Effect = policy.EffectDeny
		default:
			return nil, fmt.Errorf("xacml: rule %s: invalid effect %q", jr.ID, jr.Effect)
		}
		rt, err := fromJSONTarget(jr.Target)
		if err != nil {
			return nil, err
		}
		r.Target = rt
		if jr.Condition != nil {
			cond, err := fromJSONExpr(*jr.Condition)
			if err != nil {
				return nil, err
			}
			r.Condition = cond
		}
		robs, err := fromJSONObligations(jr.Obligations)
		if err != nil {
			return nil, err
		}
		r.Obligations = robs
		p.Rules = append(p.Rules, r)
	}
	return p, nil
}

func toJSONPolicySet(s *policy.PolicySet) (*jsonPolicySet, error) {
	js := &jsonPolicySet{
		ID:          s.ID,
		Version:     s.Version,
		Description: s.Description,
		Issuer:      s.Issuer,
		Combining:   s.Combining.String(),
		Target:      toJSONTarget(s.Target),
		Children:    make([]jsonChild, 0, len(s.Children)),
	}
	obs, err := toJSONObligations(s.Obligations)
	if err != nil {
		return nil, err
	}
	js.Obligations = obs
	for _, ch := range s.Children {
		switch v := ch.(type) {
		case *policy.Policy:
			jp, err := toJSONPolicy(v)
			if err != nil {
				return nil, err
			}
			js.Children = append(js.Children, jsonChild{Policy: jp})
		case *policy.PolicySet:
			jps, err := toJSONPolicySet(v)
			if err != nil {
				return nil, err
			}
			js.Children = append(js.Children, jsonChild{PolicySet: jps})
		default:
			return nil, fmt.Errorf("xacml: cannot marshal child %T", ch)
		}
	}
	return js, nil
}

func fromJSONPolicySet(js *jsonPolicySet) (*policy.PolicySet, error) {
	alg, err := policy.AlgorithmFromString(js.Combining)
	if err != nil {
		return nil, err
	}
	target, err := fromJSONTarget(js.Target)
	if err != nil {
		return nil, err
	}
	obs, err := fromJSONObligations(js.Obligations)
	if err != nil {
		return nil, err
	}
	s := &policy.PolicySet{
		ID:          js.ID,
		Version:     js.Version,
		Description: js.Description,
		Issuer:      js.Issuer,
		Combining:   alg,
		Target:      target,
		Obligations: obs,
	}
	for _, ch := range js.Children {
		switch {
		case ch.Policy != nil:
			p, err := fromJSONPolicy(ch.Policy)
			if err != nil {
				return nil, err
			}
			s.Children = append(s.Children, p)
		case ch.PolicySet != nil:
			inner, err := fromJSONPolicySet(ch.PolicySet)
			if err != nil {
				return nil, err
			}
			s.Children = append(s.Children, inner)
		default:
			return nil, errors.New("xacml: empty policy-set child union")
		}
	}
	return s, nil
}

type jsonDocument struct {
	Policy    *jsonPolicy    `json:"policy,omitempty"`
	PolicySet *jsonPolicySet `json:"policySet,omitempty"`
}

// MarshalJSON encodes a policy or policy set as indented JSON, the form
// policy files and the admin API carry.
func MarshalJSON(e policy.Evaluable) ([]byte, error) {
	doc, err := toJSONDocument(e)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("xacml: marshal json: %w", err)
	}
	return data, nil
}

// MarshalCompactJSON encodes a policy or policy set as compact JSON: the
// bytes json.Compact makes of MarshalJSON's, in one encoding pass. The
// store persists this form.
func MarshalCompactJSON(e policy.Evaluable) ([]byte, error) {
	doc, err := toJSONDocument(e)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("xacml: marshal json: %w", err)
	}
	return data, nil
}

func toJSONDocument(e policy.Evaluable) (*jsonDocument, error) {
	var doc jsonDocument
	switch v := e.(type) {
	case *policy.Policy:
		jp, err := toJSONPolicy(v)
		if err != nil {
			return nil, err
		}
		doc.Policy = jp
	case *policy.PolicySet:
		js, err := toJSONPolicySet(v)
		if err != nil {
			return nil, err
		}
		doc.PolicySet = js
	default:
		return nil, fmt.Errorf("xacml: cannot marshal %T", e)
	}
	return &doc, nil
}

// UnmarshalJSON decodes a policy or policy set from JSON.
func UnmarshalJSON(data []byte) (policy.Evaluable, error) {
	var doc jsonDocument
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("xacml: unmarshal json: %w", err)
	}
	switch {
	case doc.Policy != nil:
		return fromJSONPolicy(doc.Policy)
	case doc.PolicySet != nil:
		return fromJSONPolicySet(doc.PolicySet)
	default:
		return nil, errors.New("xacml: document holds neither policy nor policySet")
	}
}

// --- request / response JSON ---

type jsonRequestAttr struct {
	Category  string      `json:"category"`
	Attribute string      `json:"attribute"`
	Values    []jsonValue `json:"values"`
}

type jsonRequest struct {
	Attributes []jsonRequestAttr `json:"attributes"`
}

// MarshalRequestJSON encodes a request context as JSON.
func MarshalRequestJSON(req *policy.Request) ([]byte, error) {
	var out jsonRequest
	for _, cat := range policy.Categories() {
		for _, name := range req.Names(cat) {
			bag, _ := req.Get(cat, name)
			ja := jsonRequestAttr{Category: cat.String(), Attribute: name}
			for _, v := range bag {
				ja.Values = append(ja.Values, toJSONValue(v))
			}
			out.Attributes = append(out.Attributes, ja)
		}
	}
	data, err := json.Marshal(&out)
	if err != nil {
		return nil, fmt.Errorf("xacml: marshal request json: %w", err)
	}
	return data, nil
}

// UnmarshalRequestJSON decodes a request context from JSON.
func UnmarshalRequestJSON(data []byte) (*policy.Request, error) {
	var in jsonRequest
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("xacml: unmarshal request json: %w", err)
	}
	req := policy.NewRequest()
	for _, ja := range in.Attributes {
		cat, err := policy.CategoryFromString(ja.Category)
		if err != nil {
			return nil, err
		}
		for _, jv := range ja.Values {
			v, err := fromJSONValue(jv)
			if err != nil {
				return nil, fmt.Errorf("xacml: request attribute %s: %w", ja.Attribute, err)
			}
			req.Add(cat, ja.Attribute, v)
		}
	}
	return req, nil
}

type jsonResponseObligation struct {
	ID         string               `json:"id"`
	Attributes map[string]jsonValue `json:"attributes,omitempty"`
}

type jsonResponse struct {
	Decision string `json:"decision"`
	By       string `json:"by,omitempty"`
	Status   string `json:"status,omitempty"`
	// Degraded/StaleForMs mirror the XML codec's degraded-mode marker.
	Degraded    bool                     `json:"degraded,omitempty"`
	StaleForMs  int64                    `json:"stale_for_ms,omitempty"`
	Obligations []jsonResponseObligation `json:"obligations,omitempty"`
}

// MarshalResponseJSON encodes a decision result as JSON.
func MarshalResponseJSON(res policy.Result) ([]byte, error) {
	out := jsonResponse{Decision: res.Decision.String(), By: res.By}
	if res.Err != nil {
		out.Status = res.Err.Error()
	}
	if res.Degraded {
		out.Degraded = true
		out.StaleForMs = res.StaleFor.Milliseconds()
	}
	for _, ob := range res.Obligations {
		jo := jsonResponseObligation{ID: ob.ID}
		if len(ob.Attributes) > 0 {
			jo.Attributes = make(map[string]jsonValue, len(ob.Attributes))
			for name, v := range ob.Attributes {
				jo.Attributes[name] = toJSONValue(v)
			}
		}
		out.Obligations = append(out.Obligations, jo)
	}
	data, err := json.Marshal(&out)
	if err != nil {
		return nil, fmt.Errorf("xacml: marshal response json: %w", err)
	}
	return data, nil
}

// UnmarshalResponseJSON decodes a decision result from JSON.
func UnmarshalResponseJSON(data []byte) (policy.Result, error) {
	var in jsonResponse
	if err := json.Unmarshal(data, &in); err != nil {
		return policy.Result{}, fmt.Errorf("xacml: unmarshal response json: %w", err)
	}
	dec, err := policy.DecisionFromString(in.Decision)
	if err != nil {
		return policy.Result{}, err
	}
	res := policy.Result{Decision: dec, By: in.By}
	if in.Status != "" {
		res.Err = errors.New(in.Status)
	}
	if in.Degraded {
		res.Degraded = true
		res.StaleFor = time.Duration(in.StaleForMs) * time.Millisecond
	}
	for _, jo := range in.Obligations {
		ob := policy.FulfilledObligation{ID: jo.ID}
		if len(jo.Attributes) > 0 {
			ob.Attributes = make(map[string]policy.Value, len(jo.Attributes))
			for name, jv := range jo.Attributes {
				v, err := fromJSONValue(jv)
				if err != nil {
					return policy.Result{}, fmt.Errorf("xacml: response obligation %s: %w", jo.ID, err)
				}
				ob.Attributes[name] = v
			}
		}
		res.Obligations = append(res.Obligations, ob)
	}
	return res, nil
}
