// Command restgw is a REST enforcement gateway: the PEP-side counterpart
// of cmd/pdpd. It protects an upstream HTTP service behind the rest
// middleware, deciding either against a local policy file or against a
// remote PDP endpoint, with obligation-driven content redaction enabled.
//
// Usage:
//
//	restgw -upstream http://localhost:9000 -policy policy.xml \
//	       -route "/records/{id}=patient-record" [-route ...] [-addr :8081]
//	restgw -upstream http://localhost:9000 -pdp http://pdp:8080/decide \
//	       -route "/files/...=file"
//
// Policies may be XML, JSON or local-dialect (.acl) files. Subjects are
// taken from the X-Subject / X-Roles headers (substitute a verified-token
// extractor for production use).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/debughttp"
	"repro/internal/dialect"
	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/rest"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xacml"
)

// routeFlags collects repeated -route "pattern=resource-type" flags.
type routeFlags []string

// String implements flag.Value.
func (r *routeFlags) String() string { return strings.Join(*r, ",") }

// Set implements flag.Value.
func (r *routeFlags) Set(v string) error {
	*r = append(*r, v)
	return nil
}

// obsConfig carries the gateway's observability settings from flags.
type obsConfig struct {
	traceSample float64
	debugAddr   string
}

// Trace retention, as pdpd keeps it: no deployment has needed other values.
const (
	traceSlow   = 250 * time.Millisecond // always keep traces at least this slow
	traceBuffer = 256                    // kept-trace ring capacity behind /debug/traces
)

func main() {
	var routes routeFlags
	upstream := flag.String("upstream", "", "upstream service base URL (required)")
	policyPath := flag.String("policy", "", "local policy file (XML, JSON or .acl dialect)")
	pdpEndpoint := flag.String("pdp", "", "remote PDP envelope endpoint (alternative to -policy)")
	addr := flag.String("addr", ":8081", "listen address")
	traceSample := flag.Float64("trace-sample", 0.01, "request-trace head-sampling fraction in [0,1]; slow and Indeterminate traces are always kept")
	debugAddr := flag.String("debug-addr", "", "optional pprof listen address (profiling stays off unless set)")
	admissionLimit := flag.Int("admission", 0, "adaptive (AIMD) admission control: initial concurrency limit for proxied traffic, shed with 503 + Retry-After beyond it; metrics/trace/stats endpoints are never shed (0 disables)")
	flag.Var(&routes, "route", "URI route as pattern=resource-type (repeatable)")
	flag.Parse()

	obs := obsConfig{
		traceSample: *traceSample,
		debugAddr:   *debugAddr,
	}
	if err := run(*upstream, *policyPath, *pdpEndpoint, *addr, routes, obs, *admissionLimit); err != nil {
		log.Println("restgw:", err)
		os.Exit(1)
	}
}

func run(upstream, policyPath, pdpEndpoint, addr string, routes routeFlags, obs obsConfig, admissionLimit int) error {
	if upstream == "" {
		return fmt.Errorf("-upstream is required")
	}
	if (policyPath == "") == (pdpEndpoint == "") {
		return fmt.Errorf("exactly one of -policy or -pdp is required")
	}
	if len(routes) == 0 {
		return fmt.Errorf("at least one -route is required")
	}

	target, err := url.Parse(upstream)
	if err != nil {
		return fmt.Errorf("upstream %q: %w", upstream, err)
	}

	router := rest.NewRouter()
	for _, r := range routes {
		pattern, resourceType, ok := strings.Cut(r, "=")
		if !ok {
			return fmt.Errorf("route %q: want pattern=resource-type", r)
		}
		if err := router.Add(pattern, resourceType); err != nil {
			return err
		}
	}

	provider, localRoot, err := buildProvider(policyPath, pdpEndpoint)
	if err != nil {
		return err
	}

	reg := telemetry.NewRegistry()
	if localRoot != nil {
		// A locally-loaded policy gets a startup lint pass; the analyzer
		// counters join the gateway's /metrics exposition, mirroring pdpd.
		lintEngine := analysis.NewEngine(analysis.Config{})
		lintEngine.Install(localRoot)
		lintEngine.RegisterMetrics(reg)
		if sum := lintEngine.Summary(); sum != "clean" {
			log.Printf("restgw: policy lint: %s", sum)
		}
	}
	tracer := trace.NewTracer(trace.Options{
		Sample:        obs.traceSample,
		SlowThreshold: traceSlow,
		Capacity:      traceBuffer,
	})
	tracer.RegisterMetrics(reg)

	mw := rest.NewMiddleware(router, provider, rest.HeaderSubject,
		rest.WithTransformer("redact", rest.RedactJSON),
		rest.WithTransformer("check-content", rest.RequireField),
		rest.WithTracer(tracer))
	mw.RegisterMetrics(reg)
	proxy := httputil.NewSingleHostReverseProxy(target)

	mux := http.NewServeMux()
	mux.Handle("/", mw.Wrap(proxy))
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/traces", tracer.Handler())
	mux.HandleFunc("/gw/stats", func(w http.ResponseWriter, _ *http.Request) {
		st := mw.Stats()
		fmt.Fprintf(w, "requests=%d permitted=%d denied=%d unrouted=%d unauthenticated=%d transformed=%d\n",
			st.Requests, st.Permitted, st.Denied, st.Unrouted, st.Unauthenticated, st.Transformed)
	})
	if obs.debugAddr != "" {
		dbg := &http.Server{
			Addr:              obs.debugAddr,
			Handler:           debughttp.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("restgw: pprof debug server on %s", obs.debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("restgw: debug server: %v", err)
			}
		}()
	}
	log.Printf("restgw: protecting %s on %s (%d routes, trace-sample=%g)", upstream, addr, len(routes), obs.traceSample)
	var handler http.Handler = mux
	if admissionLimit > 0 {
		// Shed excess proxied traffic at ingress before it queues into the
		// upstream or the PDP; observability endpoints are never shed.
		admission := resilience.NewAdmission(resilience.AdmissionConfig{Initial: admissionLimit})
		admission.RegisterMetrics(reg)
		handler = admission.Middleware(func(r *http.Request) resilience.Priority {
			p := r.URL.Path
			if strings.HasPrefix(p, "/debug/") || p == "/metrics" || p == "/gw/stats" {
				return resilience.Critical
			}
			return resilience.Decision
		}, mux)
		log.Printf("restgw: adaptive admission control armed (initial limit %d)", admissionLimit)
	}
	server := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGINT/SIGTERM trigger a graceful shutdown, mirroring cmd/pdpd: stop
	// accepting connections and drain in-flight requests (whose decision
	// queries the enforcement point cancels via each request's context).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		stop()
		log.Printf("restgw: signal received, shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := server.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("restgw: http shutdown: %w", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// buildProvider loads the local engine or dials the remote PDP. The root
// comes back non-nil only for a locally-loaded policy, so the caller can
// lint it (a remote PDP lints its own base behind its admin gate).
func buildProvider(policyPath, pdpEndpoint string) (policy.Decider, policy.Evaluable, error) {
	if pdpEndpoint != "" {
		return pdp.NewClient(pdpEndpoint, "restgw", "pdp"), nil, nil
	}
	data, err := os.ReadFile(policyPath)
	if err != nil {
		return nil, nil, err
	}
	var root policy.Evaluable
	switch {
	case strings.HasSuffix(policyPath, ".json"):
		root, err = xacml.UnmarshalJSON(data)
	case strings.HasSuffix(policyPath, ".acl"):
		root, err = dialect.Translate("restgw", policy.DenyOverrides, string(data))
	default:
		root, err = xacml.UnmarshalXML(data)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", policyPath, err)
	}
	engine := pdp.New("restgw-pdp")
	if err := engine.SetRoot(root); err != nil {
		return nil, nil, err
	}
	return engine, root, nil
}
