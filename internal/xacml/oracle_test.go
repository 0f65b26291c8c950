package xacml

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/policy"
)

// The reflective encoding/xml codec the request and response contexts
// used before internal/xmlscan, kept as the differential oracle: the
// production decoders must accept nothing it rejects, and agree with it
// on every value.

type xmlAttributeValue struct {
	DataType string `xml:"DataType,attr"`
	Text     string `xml:",chardata"`
}

type xmlAttribute struct {
	AttributeID string              `xml:"AttributeId,attr"`
	Values      []xmlAttributeValue `xml:"AttributeValue"`
}

type xmlAttributes struct {
	Category   string         `xml:"Category,attr"`
	Attributes []xmlAttribute `xml:"Attribute"`
}

type xmlRequest struct {
	XMLName    xml.Name        `xml:"Request"`
	Categories []xmlAttributes `xml:"Attributes"`
}

type xmlAssignment struct {
	AttributeID string `xml:"AttributeId,attr"`
	DataType    string `xml:"DataType,attr"`
	Text        string `xml:",chardata"`
}

type xmlResultObligation struct {
	ObligationID string          `xml:"ObligationId,attr"`
	Assignments  []xmlAssignment `xml:"AttributeAssignment"`
}

type xmlStatus struct {
	Message string `xml:"Message,omitempty"`
}

type xmlResult struct {
	Decision    string                `xml:"Decision,attr"`
	By          string                `xml:"By,attr,omitempty"`
	Status      *xmlStatus            `xml:"Status,omitempty"`
	Degraded    bool                  `xml:"Degraded,attr,omitempty"`
	StaleForMs  int64                 `xml:"StaleForMs,attr,omitempty"`
	Obligations []xmlResultObligation `xml:"Obligations>Obligation,omitempty"`
}

type xmlResponse struct {
	XMLName xml.Name  `xml:"Response"`
	Result  xmlResult `xml:"Result"`
}

// oracleMarshal renders v the way the old encoders did (indented) or the
// way the new ones do (compact).
func oracleMarshal(v any, indent bool) []byte {
	var data []byte
	var err error
	if indent {
		data, err = xml.MarshalIndent(v, "", "  ")
	} else {
		data, err = xml.Marshal(v)
	}
	if err != nil {
		panic(err)
	}
	return data
}

func oracleMarshalRequest(req *policy.Request, indent bool) []byte {
	var out xmlRequest
	for _, cat := range policy.Categories() {
		names := req.Names(cat)
		if len(names) == 0 {
			continue
		}
		xc := xmlAttributes{Category: cat.String()}
		for _, name := range names {
			bag, _ := req.Get(cat, name)
			xa := xmlAttribute{AttributeID: name}
			for _, v := range bag {
				xa.Values = append(xa.Values, xmlAttributeValue{DataType: v.Kind().String(), Text: v.String()})
			}
			xc.Attributes = append(xc.Attributes, xa)
		}
		out.Categories = append(out.Categories, xc)
	}
	return oracleMarshal(out, indent)
}

func oracleUnmarshalRequest(data []byte) (*policy.Request, error) {
	var in xmlRequest
	if err := xml.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	req := policy.NewRequest()
	for _, xc := range in.Categories {
		cat, err := policy.CategoryFromString(xc.Category)
		if err != nil {
			return nil, err
		}
		for _, xa := range xc.Attributes {
			for _, xv := range xa.Values {
				kind, err := policy.KindFromString(xv.DataType)
				if err != nil {
					return nil, err
				}
				v, err := policy.ParseValue(kind, xv.Text)
				if err != nil {
					return nil, err
				}
				req.Add(cat, xa.AttributeID, v)
			}
		}
	}
	return req, nil
}

// oracleMarshalResponse differs from the old encoder in one respect: it
// sorts each obligation's assignments, where the old one ranged over the
// map.
func oracleMarshalResponse(res policy.Result, indent bool) []byte {
	out := xmlResponse{Result: xmlResult{Decision: res.Decision.String(), By: res.By}}
	if res.Err != nil {
		out.Result.Status = &xmlStatus{Message: res.Err.Error()}
	}
	if res.Degraded {
		out.Result.Degraded = true
		out.Result.StaleForMs = res.StaleFor.Milliseconds()
	}
	for _, ob := range res.Obligations {
		xo := xmlResultObligation{ObligationID: ob.ID}
		for name, v := range ob.Attributes {
			xo.Assignments = append(xo.Assignments, xmlAssignment{AttributeID: name, DataType: v.Kind().String(), Text: v.String()})
		}
		sort.Slice(xo.Assignments, func(i, j int) bool { return xo.Assignments[i].AttributeID < xo.Assignments[j].AttributeID })
		out.Result.Obligations = append(out.Result.Obligations, xo)
	}
	return oracleMarshal(out, indent)
}

func oracleUnmarshalResponse(data []byte) (policy.Result, error) {
	var in xmlResponse
	if err := xml.Unmarshal(bytes.TrimSpace(data), &in); err != nil {
		return policy.Result{}, err
	}
	dec, err := policy.DecisionFromString(in.Result.Decision)
	if err != nil {
		return policy.Result{}, err
	}
	res := policy.Result{Decision: dec, By: in.Result.By}
	if in.Result.Status != nil && in.Result.Status.Message != "" {
		res.Err = errors.New(in.Result.Status.Message)
	}
	if in.Result.Degraded {
		res.Degraded = true
		res.StaleFor = time.Duration(in.Result.StaleForMs) * time.Millisecond
	}
	for _, xo := range in.Result.Obligations {
		ob := policy.FulfilledObligation{ID: xo.ObligationID}
		if len(xo.Assignments) > 0 {
			ob.Attributes = make(map[string]policy.Value, len(xo.Assignments))
		}
		for _, xa := range xo.Assignments {
			kind, err := policy.KindFromString(xa.DataType)
			if err != nil {
				return policy.Result{}, err
			}
			v, err := policy.ParseValue(kind, xa.Text)
			if err != nil {
				return policy.Result{}, err
			}
			ob.Attributes[xa.AttributeID] = v
		}
		res.Obligations = append(res.Obligations, ob)
	}
	return res, nil
}

// renderRequest is a request's whole content, bag order included.
func renderRequest(req *policy.Request) string {
	var sb strings.Builder
	for _, cat := range policy.Categories() {
		for _, name := range req.Names(cat) {
			bag, _ := req.Get(cat, name)
			fmt.Fprintf(&sb, "%v/%q:", cat, name)
			for _, v := range bag {
				fmt.Fprintf(&sb, " %v(%q)", v.Kind(), v.String())
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// renderResult is a result's whole content as the wire carries it.
func renderResult(res policy.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v by %q degraded=%v stale=%v", res.Decision, res.By, res.Degraded, res.StaleFor)
	if res.Err != nil {
		fmt.Fprintf(&sb, " err=%q", res.Err.Error())
	}
	for _, ob := range res.Obligations {
		names := make([]string, 0, len(ob.Attributes))
		for name := range ob.Attributes {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(&sb, "\nobligation %q:", ob.ID)
		for _, name := range names {
			v := ob.Attributes[name]
			fmt.Fprintf(&sb, " %q=%v(%q)", name, v.Kind(), v.String())
		}
	}
	return sb.String()
}
