// Package xacml provides wire encodings for policies and authorisation
// request/response contexts, mirroring the role the XACML schema and its
// request/response protocol play in the paper (Section 2.3).
//
// Two encodings are provided:
//
//   - An XML dialect structurally equivalent to XACML 2.0 (PolicySet /
//     Policy / Rule / Target / Condition / Apply / AttributeDesignator /
//     AttributeValue / ObligationExpression, and the Request/Response
//     context). Child ordering is preserved, which matters for the
//     first-applicable combining algorithm.
//   - A compact JSON encoding used by the HTTP binding in cmd/pdpd, in the
//     spirit of the later JSON profile of XACML.
//
// Both encodings round-trip: Decode(Encode(p)) yields a policy that
// evaluates identically to p.
//
// Policy documents (xml.go) go through encoding/xml: they travel on the
// admin plane. The request and response contexts (context.go) are on the
// path of every remote decision, so they are appended to a buffer and
// read with internal/xmlscan instead; the format is the same.
package xacml
