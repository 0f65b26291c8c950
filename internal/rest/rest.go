// Package rest enforces access control over RESTful resource interfaces.
//
// Section 3.1 of the paper notes that for RESTful Web Services, where
// resources are addressed by URI and manipulated with the uniform HTTP
// method set, "it is much easier to control access" than for SOAP endpoints
// multiplexed behind a single URI — provided the enforcement point
// understands the URI space. This package supplies that enforcement point:
//
//   - Router maps URI templates such as /wards/{ward}/records/{id} onto
//     policy requests, binding path variables as resource attributes;
//   - Middleware is the HTTP deployment of a pep.Enforcer: it derives a
//     policy request from method + path and lets the enforcer decide,
//     with its deny bias and obligation contract;
//   - response transformers implement the content-based access control the
//     paper derives from XACML obligations: a permit may carry an
//     obligation to inspect or redact the resource body before release.
//     Such an obligation is checked at decision, where one the middleware
//     does not understand fails closed before the upstream is called, and
//     runs at release. Deny-side obligations are run best-effort, as the
//     enforcer runs them, and never call the upstream or a transformer.
package rest

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/pep"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Package errors, matched with errors.Is.
var (
	// ErrNoRoute reports a path no route covers.
	ErrNoRoute = errors.New("rest: no route matches")
	// ErrBadPattern reports an invalid URI template.
	ErrBadPattern = errors.New("rest: invalid pattern")
)

// DefaultActions maps HTTP methods onto the action vocabulary policies use.
// The mapping follows REST conventions: safe methods read, PUT/PATCH/POST
// write, DELETE deletes.
var DefaultActions = map[string]string{
	http.MethodGet:    "read",
	http.MethodHead:   "read",
	http.MethodPost:   "write",
	http.MethodPut:    "write",
	http.MethodPatch:  "write",
	http.MethodDelete: "delete",
}

// Route is one URI template with its resource typing.
type Route struct {
	// Pattern is the URI template: literal segments, {name} variable
	// segments, and an optional trailing "..." wildcard that matches any
	// remainder. Patterns must start with '/'.
	Pattern string
	// ResourceType is bound as the resource-type attribute of matched
	// requests.
	ResourceType string

	segments []string
	wildcard bool
}

// MatchedRoute is the result of routing one path.
type MatchedRoute struct {
	// Route is the winning route.
	Route *Route
	// Vars holds the values captured by {name} segments.
	Vars map[string]string
	// Rest is the remainder consumed by a trailing wildcard.
	Rest string
}

// Router resolves request paths against an ordered route table. Routes are
// tried most-specific first: more literal segments win, declaration order
// breaks ties.
type Router struct {
	mu     sync.RWMutex
	routes []*Route
}

// NewRouter builds an empty router.
func NewRouter() *Router { return &Router{} }

// Add parses and registers a route.
func (r *Router) Add(pattern, resourceType string) error {
	rt, err := compileRoute(pattern, resourceType)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routes = append(r.routes, rt)
	return nil
}

// MustAdd is Add for static route tables; it panics on a bad pattern.
func (r *Router) MustAdd(pattern, resourceType string) {
	if err := r.Add(pattern, resourceType); err != nil {
		panic(err)
	}
}

func compileRoute(pattern, resourceType string) (*Route, error) {
	if !strings.HasPrefix(pattern, "/") {
		return nil, fmt.Errorf("%w: %q must start with '/'", ErrBadPattern, pattern)
	}
	rt := &Route{Pattern: pattern, ResourceType: resourceType}
	trimmed := strings.Trim(pattern, "/")
	if trimmed != "" {
		rt.segments = strings.Split(trimmed, "/")
	}
	seen := make(map[string]struct{})
	for i, seg := range rt.segments {
		switch {
		case seg == "...":
			if i != len(rt.segments)-1 {
				return nil, fmt.Errorf("%w: %q: wildcard must be the last segment", ErrBadPattern, pattern)
			}
			rt.wildcard = true
			rt.segments = rt.segments[:i]
		case strings.HasPrefix(seg, "{") && strings.HasSuffix(seg, "}"):
			name := seg[1 : len(seg)-1]
			if name == "" {
				return nil, fmt.Errorf("%w: %q: empty variable name", ErrBadPattern, pattern)
			}
			if _, dup := seen[name]; dup {
				return nil, fmt.Errorf("%w: %q: duplicate variable %q", ErrBadPattern, pattern, name)
			}
			seen[name] = struct{}{}
		case seg == "":
			return nil, fmt.Errorf("%w: %q: empty segment", ErrBadPattern, pattern)
		}
	}
	return rt, nil
}

// literals counts non-variable segments, the specificity measure.
func (rt *Route) literals() int {
	n := 0
	for _, seg := range rt.segments {
		if !strings.HasPrefix(seg, "{") {
			n++
		}
	}
	return n
}

// match attempts to bind the path segments to the route.
func (rt *Route) match(parts []string) (map[string]string, string, bool) {
	if rt.wildcard {
		if len(parts) < len(rt.segments) {
			return nil, "", false
		}
	} else if len(parts) != len(rt.segments) {
		return nil, "", false
	}
	var vars map[string]string
	for i, seg := range rt.segments {
		if strings.HasPrefix(seg, "{") {
			if vars == nil {
				vars = make(map[string]string, 2)
			}
			vars[seg[1:len(seg)-1]] = parts[i]
			continue
		}
		if seg != parts[i] {
			return nil, "", false
		}
	}
	rest := ""
	if rt.wildcard {
		rest = strings.Join(parts[len(rt.segments):], "/")
	}
	return vars, rest, true
}

// Match resolves a path to its most specific route.
func (r *Router) Match(path string) (*MatchedRoute, error) {
	trimmed := strings.Trim(path, "/")
	var parts []string
	if trimmed != "" {
		parts = strings.Split(trimmed, "/")
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var best *MatchedRoute
	bestScore := -1
	for _, rt := range r.routes {
		vars, rest, ok := rt.match(parts)
		if !ok {
			continue
		}
		// Exact-length routes beat wildcard routes of the same literal
		// count; more literals always win.
		score := rt.literals() * 2
		if !rt.wildcard {
			score++
		}
		if score > bestScore {
			best = &MatchedRoute{Route: rt, Vars: vars, Rest: rest}
			bestScore = score
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, path)
	}
	return best, nil
}

// BuildRequest derives a policy request from an HTTP method and path:
// resource-id is the full path, resource-type comes from the route, path
// variables become resource attributes, and the method maps to an action
// through the actions table (DefaultActions when nil).
func (r *Router) BuildRequest(method, path string, actions map[string]string) (*policy.Request, *MatchedRoute, error) {
	m, err := r.Match(path)
	if err != nil {
		return nil, nil, err
	}
	if actions == nil {
		actions = DefaultActions
	}
	action, ok := actions[method]
	if !ok {
		action = strings.ToLower(method)
	}
	req := policy.NewRequest().
		Add(policy.CategoryResource, policy.AttrResourceID, policy.String(path)).
		Add(policy.CategoryAction, policy.AttrActionID, policy.String(action))
	if m.Route.ResourceType != "" {
		req.Add(policy.CategoryResource, policy.AttrResourceType, policy.String(m.Route.ResourceType))
	}
	for name, value := range m.Vars {
		req.Add(policy.CategoryResource, name, policy.String(value))
	}
	if m.Rest != "" {
		req.Add(policy.CategoryResource, "path-rest", policy.String(m.Rest))
	}
	return req, m, nil
}

// SubjectFunc extracts the requesting subject from the HTTP request and
// adds its attributes to the policy request. Returning an error refuses the
// request as unauthenticated (401).
type SubjectFunc func(r *http.Request, req *policy.Request) error

// HeaderSubject derives the subject from plain headers, the simplest
// deployment: X-Subject carries the identifier, X-Roles a comma-separated
// role list. Production deployments substitute a verified-token extractor
// with the same shape.
func HeaderSubject(r *http.Request, req *policy.Request) error {
	id := r.Header.Get("X-Subject")
	if id == "" {
		return errors.New("rest: no X-Subject header")
	}
	req.Add(policy.CategorySubject, policy.AttrSubjectID, policy.String(id))
	if roles := r.Header.Get("X-Roles"); roles != "" {
		for _, role := range strings.Split(roles, ",") {
			req.Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String(strings.TrimSpace(role)))
		}
	}
	return nil
}

// Transformer rewrites a response body to discharge one content obligation.
type Transformer func(ob policy.FulfilledObligation, body []byte) ([]byte, error)

// Middleware is the REST enforcement point.
type Middleware struct {
	router       *Router
	enforcer     *pep.Enforcer
	subject      SubjectFunc
	transformers map[string]Transformer
	tracer       *trace.Tracer

	mu    sync.Mutex
	stats Stats
}

// Stats counts middleware activity.
type Stats struct {
	// Requests counts accesses intercepted.
	Requests int64
	// Permitted and Denied count outcomes; Unrouted counts paths outside
	// the route table (denied), Unauthenticated counts missing subjects.
	Permitted, Denied, Unrouted, Unauthenticated int64
	// Transformed counts responses rewritten by content obligations.
	Transformed int64
}

// MiddlewareOption configures the middleware.
type MiddlewareOption func(*Middleware)

// WithTransformer registers the handler for a content obligation ID.
func WithTransformer(obligationID string, t Transformer) MiddlewareOption {
	return func(m *Middleware) { m.transformers[obligationID] = t }
}

// WithTracer roots a decision trace at the enforcement point: each
// intercepted request becomes a trace whose spans follow the decision
// through engine, cluster, PIP and any remote PDP hop. Sampled (and
// slow/Indeterminate) traces are retained by the tracer; every traced
// response carries its ID in the X-Trace-Id header so a caller can quote
// it against /debug/traces.
func WithTracer(t *trace.Tracer) MiddlewareOption {
	return func(m *Middleware) { m.tracer = t }
}

// NewMiddleware builds the enforcement point: one pep.Enforcer over the
// PDP it queries. Each transformer's obligation ID is an obligation the
// enforcer understands: it is checked at decision and run at release, on
// the buffered response. Deny-side obligations are best-effort, as in
// pep. The incoming http.Request's context is threaded into every query,
// so a client that disconnects — or a server write deadline about to
// fire — cancels the decision instead of leaving it running; an
// out-of-time decision is Indeterminate, which the enforcer denies.
func NewMiddleware(router *Router, pdp policy.Decider, subject SubjectFunc, opts ...MiddlewareOption) *Middleware {
	m := &Middleware{
		router:       router,
		subject:      subject,
		transformers: make(map[string]Transformer),
	}
	for _, opt := range opts {
		opt(m)
	}
	var understood []pep.EnforcerOption
	for id := range m.transformers {
		understood = append(understood, pep.WithObligationHandler(id,
			func(policy.FulfilledObligation, *policy.Request) error { return nil }))
	}
	m.enforcer = pep.NewEnforcer("rest", pdp, understood...)
	return m
}

// Stats returns a snapshot of the counters.
func (m *Middleware) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// RegisterMetrics exposes the enforcement point's counters on the
// registry (pull-model; the collector takes the stats lock at scrape time
// only).
func (m *Middleware) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("repro_rest_requests_total",
		"Accesses intercepted by the REST enforcement point.",
		func() int64 { return m.Stats().Requests })
	reg.Register("repro_rest_outcomes_total",
		"Enforcement outcomes at the REST enforcement point.",
		telemetry.KindCounter, func() []telemetry.Sample {
			st := m.Stats()
			return []telemetry.Sample{
				{Labels: []telemetry.Label{telemetry.L("outcome", "permitted")}, Value: float64(st.Permitted)},
				{Labels: []telemetry.Label{telemetry.L("outcome", "denied")}, Value: float64(st.Denied)},
				{Labels: []telemetry.Label{telemetry.L("outcome", "unrouted")}, Value: float64(st.Unrouted)},
				{Labels: []telemetry.Label{telemetry.L("outcome", "unauthenticated")}, Value: float64(st.Unauthenticated)},
			}
		})
	reg.CounterFunc("repro_rest_transformed_total",
		"Responses rewritten by content obligations.",
		func() int64 { return m.Stats().Transformed })
}

func (m *Middleware) count(f func(*Stats)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f(&m.stats)
}

// bodyRecorder buffers the downstream response so content obligations can
// rewrite it before release.
type bodyRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newBodyRecorder() *bodyRecorder {
	return &bodyRecorder{header: make(http.Header), status: http.StatusOK}
}

// Header implements http.ResponseWriter.
func (b *bodyRecorder) Header() http.Header { return b.header }

// WriteHeader implements http.ResponseWriter.
func (b *bodyRecorder) WriteHeader(status int) { b.status = status }

// Write implements http.ResponseWriter.
func (b *bodyRecorder) Write(p []byte) (int, error) { return b.body.Write(p) }

// Wrap guards the handler: every request must be allowed by the enforcer
// before the handler runs, and an allowed permit's content obligations
// transform the response before release.
func (m *Middleware) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.count(func(s *Stats) { s.Requests++ })
		ctx := r.Context()
		var root *trace.Span
		if m.tracer != nil {
			ctx, root = m.tracer.StartRoot(ctx, "rest "+r.Method+" "+r.URL.Path)
			defer root.End()
			root.SetAttr("http.method", r.Method)
			root.SetAttr("http.path", r.URL.Path)
			w.Header().Set("X-Trace-Id", root.TraceID.String())
			r = r.WithContext(ctx)
		}
		req, _, err := m.router.BuildRequest(r.Method, r.URL.Path, nil)
		if err != nil {
			m.count(func(s *Stats) { s.Unrouted++; s.Denied++ })
			root.SetAttr("rest.outcome", "unrouted")
			http.Error(w, "no such resource", http.StatusNotFound)
			return
		}
		if err := m.subject(r, req); err != nil {
			m.count(func(s *Stats) { s.Unauthenticated++; s.Denied++ })
			root.SetAttr("rest.outcome", "unauthenticated")
			http.Error(w, "authentication required", http.StatusUnauthorized)
			return
		}
		root.SetAttr("rest.subject", req.SubjectID())
		out := m.enforcer.Enforce(ctx, req)
		root.SetAttr("rest.decision", out.Decision.String())
		if out.Decision == policy.DecisionIndeterminate {
			// The always-capture invariant at the enforcement point: a
			// decision that failed closed is retained whatever the
			// sampling rate says.
			root.Keep()
		}
		if !out.Allowed {
			m.count(func(s *Stats) { s.Denied++ })
			http.Error(w, "access denied", http.StatusForbidden)
			return
		}
		if len(out.Obligations) == 0 {
			m.count(func(s *Stats) { s.Permitted++ })
			next.ServeHTTP(w, r)
			return
		}
		rec := newBodyRecorder()
		next.ServeHTTP(rec, r)
		body := rec.body.Bytes()
		for _, ob := range out.Obligations {
			if body, err = m.transformers[ob.ID](ob, body); err != nil {
				// The content check failed: the paper's content-based
				// access control demands refusal, not partial release.
				m.count(func(s *Stats) { s.Denied++ })
				http.Error(w, "access denied", http.StatusForbidden)
				return
			}
		}
		m.count(func(s *Stats) { s.Permitted++; s.Transformed++ })
		for k, vals := range rec.header {
			if k == "Content-Length" {
				continue
			}
			w.Header()[k] = vals
		}
		w.WriteHeader(rec.status)
		_, _ = w.Write(body)
	})
}
