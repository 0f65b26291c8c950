package xacml

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/policy"
	"repro/internal/xmlscan"
)

// The request and response contexts mirror the XACML context schema: the
// messages a PEP and PDP exchange (Fig. 4 of the paper). They are encoded
// by appending to a buffer and decoded with internal/xmlscan straight
// into policy.Request and policy.Result. Encoders emit the compact form;
// decoders accept any layout, skip unknown elements and match names
// without regard to namespace prefixes.

// MarshalRequestXML encodes a request context.
func MarshalRequestXML(req *policy.Request) ([]byte, error) {
	buf := append(make([]byte, 0, 512), "<Request>"...)
	for cat := policy.CategorySubject; cat <= policy.CategoryEnvironment; cat++ {
		names := req.Names(cat)
		if len(names) == 0 {
			continue
		}
		buf = append(append(append(buf, `<Attributes Category="`...), cat.String()...), `">`...)
		for _, name := range names {
			bag, _ := req.Get(cat, name)
			buf = append(xmlscan.AppendEscaped(append(buf, `<Attribute AttributeId="`...), name), `">`...)
			for _, v := range bag {
				buf = append(append(append(buf, `<AttributeValue DataType="`...), v.Kind().String()...), `">`...)
				buf = append(xmlscan.AppendEscaped(buf, v.String()), "</AttributeValue>"...)
			}
			buf = append(buf, "</Attribute>"...)
		}
		buf = append(buf, "</Attributes>"...)
	}
	return append(buf, "</Request>"...), nil
}

// wellKnown returns the shared constant for an attribute name every
// request carries, so decoding one does not allocate its name again.
func wellKnown(name []byte) string {
	switch string(name) {
	case policy.AttrSubjectID:
		return policy.AttrSubjectID
	case policy.AttrSubjectRole:
		return policy.AttrSubjectRole
	case policy.AttrResourceID:
		return policy.AttrResourceID
	case policy.AttrActionID:
		return policy.AttrActionID
	}
	return string(name)
}

// kindOf names a DataType attribute's kind; a known name does not
// allocate.
func kindOf(name []byte) (policy.Kind, error) {
	for k := policy.KindString; k <= policy.KindDuration; k++ {
		if string(name) == k.String() {
			return k, nil
		}
	}
	return policy.KindFromString(string(name))
}

// categoryOf is kindOf for a Category attribute.
func categoryOf(name []byte) (policy.Category, error) {
	for c := policy.CategorySubject; c <= policy.CategoryEnvironment; c++ {
		if string(name) == c.String() {
			return c, nil
		}
	}
	return policy.CategoryFromString(string(name))
}

// decodeValue reads the typed value of the element the scanner is in.
func decodeValue(s *xmlscan.Scanner) (policy.Value, error) {
	dataType, _ := s.Attr("DataType")
	kind, err := kindOf(dataType)
	if err != nil {
		return policy.Value{}, err
	}
	text, err := s.Text()
	if err != nil {
		return policy.Value{}, err
	}
	return policy.ParseValue(kind, string(text))
}

// UnmarshalRequestXML decodes a request context.
func UnmarshalRequestXML(data []byte) (*policy.Request, error) {
	s := xmlscan.New(data)
	if err := s.Root("Request"); err != nil {
		return nil, fmt.Errorf("xacml: unmarshal request: %w", err)
	}
	req := policy.NewRequest()
	err := children(&s, "Attributes", func() error {
		name, _ := s.Attr("Category")
		cat, err := categoryOf(name)
		if err != nil {
			return err
		}
		return children(&s, "Attribute", func() error {
			id, _ := s.Attr("AttributeId")
			attr := wellKnown(id)
			return children(&s, "AttributeValue", func() error {
				v, err := decodeValue(&s)
				if err != nil {
					return fmt.Errorf("attribute %s: %w", attr, err)
				}
				req.Add(cat, attr, v)
				return nil
			})
		})
	})
	if err != nil {
		return nil, fmt.Errorf("xacml: unmarshal request: %w", err)
	}
	return req, nil
}

// children calls visit for each child element of the current one with
// the given local name, positioned on its start tag, and skips the
// others. visit consumes the element.
func children(s *xmlscan.Scanner, local string, visit func() error) error {
	return s.Children(func(name []byte) error {
		if string(name) == local {
			return visit()
		}
		return s.Skip()
	})
}

// AppendResponseXML appends the encoding of a decision result to dst.
// Obligation assignments are written in AttributeId order, so one result
// always encodes to the same bytes.
func AppendResponseXML(dst []byte, res policy.Result) []byte {
	dst = append(append(dst, `<Response><Result Decision="`...), res.Decision.String()...)
	if res.By != "" {
		dst = xmlscan.AppendEscaped(append(dst, `" By="`...), res.By)
	}
	// Degraded and StaleForMs carry the bounded-staleness degraded-mode
	// marker across the wire (a local extension to the context schema), so
	// a remote enforcement point can audit and count served-stale answers
	// exactly like an in-process one.
	if res.Degraded {
		dst = append(dst, `" Degraded="true`...)
		if ms := res.StaleFor.Milliseconds(); ms != 0 {
			dst = strconv.AppendInt(append(dst, `" StaleForMs="`...), ms, 10)
		}
	}
	dst = append(dst, `">`...)
	if res.Err != nil {
		dst = append(dst, "<Status>"...)
		if msg := res.Err.Error(); msg != "" {
			dst = append(xmlscan.AppendEscaped(append(dst, "<Message>"...), msg), "</Message>"...)
		}
		dst = append(dst, "</Status>"...)
	}
	if len(res.Obligations) > 0 {
		dst = append(dst, "<Obligations>"...)
		for _, ob := range res.Obligations {
			dst = append(xmlscan.AppendEscaped(append(dst, `<Obligation ObligationId="`...), ob.ID), `">`...)
			names := make([]string, 0, len(ob.Attributes))
			for name := range ob.Attributes {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				v := ob.Attributes[name]
				dst = xmlscan.AppendEscaped(append(dst, `<AttributeAssignment AttributeId="`...), name)
				dst = append(append(append(dst, `" DataType="`...), v.Kind().String()...), `">`...)
				dst = append(xmlscan.AppendEscaped(dst, v.String()), "</AttributeAssignment>"...)
			}
			dst = append(dst, "</Obligation>"...)
		}
		dst = append(dst, "</Obligations>"...)
	}
	return append(dst, "</Result></Response>"...)
}

// MarshalResponseXML encodes a decision result.
func MarshalResponseXML(res policy.Result) ([]byte, error) {
	return AppendResponseXML(make([]byte, 0, 256), res), nil
}

// UnmarshalResponseXML decodes a decision result. The Err field of an
// Indeterminate result is reconstructed as an opaque error carrying the
// status message.
func UnmarshalResponseXML(data []byte) (policy.Result, error) {
	res, err := decodeResponse(data)
	if err != nil {
		return policy.Result{}, fmt.Errorf("xacml: unmarshal response: %w", err)
	}
	return res, nil
}

func decodeResponse(data []byte) (policy.Result, error) {
	s := xmlscan.New(data)
	if err := s.Root("Response"); err != nil {
		return policy.Result{}, err
	}
	var (
		res      policy.Result
		decision []byte
		message  string
		staleMs  int64
	)
	err := children(&s, "Result", func() error {
		if v, ok := s.Attr("Decision"); ok {
			decision = v
		}
		if v, ok := s.Attr("By"); ok {
			res.By = string(v)
		}
		var err error
		if v, ok := s.Attr("Degraded"); ok {
			if res.Degraded, err = xmlscan.ParseBool(v); err != nil {
				return fmt.Errorf("Degraded: %w", err)
			}
		}
		if v, ok := s.Attr("StaleForMs"); ok {
			if staleMs, err = xmlscan.ParseInt(v); err != nil {
				return fmt.Errorf("StaleForMs: %w", err)
			}
		}
		return s.Children(func(name []byte) error {
			switch string(name) {
			case "Status":
				return children(&s, "Message", func() error {
					text, err := s.Text()
					message = string(text)
					return err
				})
			case "Obligations":
				return children(&s, "Obligation", func() error {
					ob, err := decodeObligation(&s)
					res.Obligations = append(res.Obligations, ob)
					return err
				})
			}
			return s.Skip()
		})
	})
	if err != nil {
		return policy.Result{}, err
	}
	if res.Decision, err = policy.DecisionFromString(string(decision)); err != nil {
		return policy.Result{}, err
	}
	if message != "" {
		res.Err = errors.New(message)
	}
	if res.Degraded {
		res.StaleFor = time.Duration(staleMs) * time.Millisecond
	}
	return res, nil
}

// decodeObligation reads the Obligation element the scanner is in.
func decodeObligation(s *xmlscan.Scanner) (policy.FulfilledObligation, error) {
	id, _ := s.Attr("ObligationId")
	ob := policy.FulfilledObligation{ID: string(id)}
	err := children(s, "AttributeAssignment", func() error {
		name, _ := s.Attr("AttributeId")
		attr := string(name)
		v, err := decodeValue(s)
		if err != nil {
			return fmt.Errorf("obligation %s: %w", ob.ID, err)
		}
		if ob.Attributes == nil {
			ob.Attributes = make(map[string]policy.Value)
		}
		ob.Attributes[attr] = v
		return nil
	})
	return ob, err
}
