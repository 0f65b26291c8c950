package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric; BENCHMARK.json lists the same names, units
// and directions (a test keeps the two in step).
type metricDef struct {
	name, unit string
}

// endToEndMetrics is what --trace 0 reports: what a PEP, or the operator
// paying for the daemon, sees.
var endToEndMetrics = []metricDef{
	{"decisions_per_s", "1/s"},
	{"decide_p50_ms", "ms"},
	{"server_cpu_us_per_decision", "us"},
	{"server_peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayerMetrics is what --trace 1 reports: one layer each, no bound.
// The first block is the ISSUE's layer table; the second is end-to-end
// readings that cannot be gated (see README "Bounds and demotions").
var perLayerMetrics = []metricDef{
	{"xacml.request_codec_us", "us"},
	{"xacml.response_codec_us", "us"},
	{"wire.envelope_codec_us", "us"},
	{"wire.http_self_us", "us"},
	{"resilience.admission_self_us", "us"},
	{"resilience.admission_rejected", "count"},
	{"cluster.route_self_us", "us"},
	{"ha.ensemble_self_us", "us"},
	{"pdp.decide_us", "us"},
	{"pdp.cache_hit_ratio", "share"},
	{"pdp.interpreted_share", "share"},
	{"pip.resolve_us", "us"},
	{"pip.hit_ratio", "share"},
	{"pap.put_self_us", "us"},
	{"analysis.gate_us", "us"},
	{"store.append_us", "us"},
	{"store.fsyncs_per_write", "count"},
	{"pdp.apply_update_us", "us"},
	{"trace.overhead_share", "share"},
	{"bench.generator_late_p99_ms", "ms"},
	{"bench.client_cpu_share", "share"},
	{"ladder.explained_us", "us"},
	{"ladder.unexplained_us", "us"},

	{"decide_p99_ms", "ms"},
	{"failed_share", "share"},
	{"admin_write_p50_ms", "ms"},
}

// value is one reported number with the count of samples behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// machine is the shape and provenance every output file records.
type machine struct {
	Nproc            int    `json:"nproc"`
	BenchGOMAXPROCS  int    `json:"gomaxprocs_bench"`
	DaemonGOMAXPROCS int    `json:"gomaxprocs_daemon"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"git_commit"`
	OS               string `json:"os_arch"`
}

// report is one output file: bench/out/<workload>-seed<n>-trace<t>-<time>.json.
type report struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Loop      string             `json:"loop"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Time      string             `json:"time"`
	Machine   machine            `json:"machine"`
	Constants map[string]float64 `json:"constants"`
	Phases    map[string]float64 `json:"phase_wall_s"`
	// Metrics holds every metric printed, end-to-end and diagnostic;
	// Result.Metrics is the subset the contract asks for in this mode.
	Metrics  map[string]value   `json:"metrics"`
	Failures map[string]int     `json:"failures"`
	Counts   map[string]float64 `json:"boundary_counts,omitempty"`
	// Ladder is the traced pass's rung table; the spans are in
	// bench/out/trace-<workload>.json.
	Ladder []rung `json:"ladder,omitempty"`
	// Invalid is set when the generator, not the daemon, shaped the
	// numbers (lateness p99 above 1 ms).
	Invalid string `json:"invalid,omitempty"`
	Result  result `json:"result"`
	// Claim stays null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`

	order []string // print order of Metrics
	paced bool     // the workload sends on a schedule, so generator lateness can invalidate it
}

func newReport(r *run) *report {
	loop := fmt.Sprintf("closed, %d clients", r.w.clients)
	if r.w.openRate > 0 {
		loop = fmt.Sprintf("open, Poisson %g/s over %d connections", r.w.openRate, r.w.clients)
	}
	if r.w.writesPerS > 0 {
		loop += fmt.Sprintf(" + 1 admin writer paced at %g/s", r.w.writesPerS)
	}
	return &report{
		Workload: r.w.name, Why: r.w.why, Loop: loop, paced: r.w.openRate > 0 || r.w.writesPerS > 0,
		Seed: r.seed, Seconds: r.seconds, Traced: r.traced,
		Time: time.Now().UTC().Format(time.RFC3339),
		Machine: machine{
			Nproc:           runtime.NumCPU(),
			BenchGOMAXPROCS: runtime.GOMAXPROCS(0),
			// The daemon inherits this process's environment and runs the
			// same Go runtime, so its default is the same.
			DaemonGOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:        runtime.Version(),
			Commit:           commit(),
			OS:               runtime.GOOS + "/" + runtime.GOARCH,
		},
		Constants: constants(),
		Metrics:   map[string]value{},
		Failures:  map[string]int{},
		Result:    result{Correct: true, Metrics: map[string]value{}},
	}
}

// commit is the VCS revision stamped into this binary, when it was built
// inside a git work tree.
func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

// ownCPUSeconds is this process's consumed CPU.
func ownCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// set records one metric.
func (rep *report) set(name, unit string, v float64, n int) {
	if _, seen := rep.Metrics[name]; !seen {
		rep.order = append(rep.order, name)
	}
	rep.Metrics[name] = value{Value: v, Unit: unit, N: n}
}

// account folds a window's verified tally into the contract's counts and
// the failure table.
func (rep *report) account(t *tally) {
	rep.Result.Attempted += t.attempted + t.writes
	rep.Result.Failed += t.failed()
	if t.wrong > 0 {
		rep.Result.Correct = false
		fmt.Fprintln(os.Stderr, "bench: WRONG ANSWER:", t.firstWrong)
	}
	for reason, n := range t.reasonCounts() {
		rep.Failures[reason] += n
	}
}

// windowMetrics records the end-to-end readings of one window. It refuses
// a window too short to support p99 under the ten-samples-beyond rule.
func (rep *report) windowMetrics(m *measured) error {
	t := m.tally
	calls := len(t.latency)
	p99, err := percentile(t.latency, 0.99)
	if err != nil {
		return fmt.Errorf("window answered only %d calls: p99 has %w; run longer", calls, err)
	}
	late99, err := percentile(t.lateness, 0.99)
	if err != nil {
		return fmt.Errorf("generator lateness p99 over %d calls: %w", len(t.lateness), err)
	}
	rep.set("decisions_per_s", "1/s", float64(t.correct)/m.traffic.elapsed, t.correct)
	rep.set("decide_p50_ms", "ms", ms(median(t.latency)), calls)
	rep.set("decide_p99_ms", "ms", ms(float64(p99)), calls)
	completed := t.attempted - t.dropped - t.transport - t.shed
	rep.set("server_cpu_us_per_decision", "us", m.cpu*1e6/float64(completed), completed)
	rep.set("server_peak_rss_mb", "MB", m.rssMB, 1)
	rep.set("failed_share", "share", float64(t.failed())/float64(t.attempted+t.writes), t.attempted+t.writes)
	// 0 on the workloads without an admin writer.
	rep.set("admin_write_p50_ms", "ms", ms(median(t.writeLatency)), len(t.writeLatency))
	rep.set("bench.generator_late_p99_ms", "ms", ms(float64(late99)), len(t.lateness))
	rep.set("bench.client_cpu_share", "share", m.client/(m.traffic.elapsed*float64(runtime.NumCPU())), 1)
	rep.set("window_s", "s", m.traffic.elapsed, 1)
	if late := ms(float64(late99)); late > 1 && rep.paced {
		rep.Invalid = fmt.Sprintf("generator lateness p99 %.3f ms > 1 ms: the generator, not the daemon, shaped this run", late)
	}
	return nil
}

// endToEnd fills the --trace 0 result.
func (rep *report) endToEnd(m *measured, setupS float64, setups int) error {
	rep.account(m.tally)
	if err := rep.windowMetrics(m); err != nil {
		return err
	}
	rep.set("setup_s", "s", setupS, setups)
	rep.boundaryCounts(m)
	for _, def := range endToEndMetrics {
		rep.Result.Metrics[def.name] = value{Value: rep.Metrics[def.name].Value, Unit: def.unit}
	}
	return nil
}

// perLayer fills the --trace 1 result from the untraced and traced
// half-windows and the ladder. Times are µs per call.
func (rep *report) perLayer(untraced, traced *measured, lt *layerTimes) error {
	rep.account(untraced.tally)
	rep.account(traced.tally)
	if err := rep.windowMetrics(untraced); err != nil {
		return err
	}
	rep.boundaryCounts(untraced)
	for _, m := range []struct {
		name string
		v    float64
	}{
		{"xacml.request_codec_us", lt.requestCodec},
		{"xacml.response_codec_us", lt.responseCodec},
		{"wire.envelope_codec_us", lt.envelopeCodec},
		{"wire.http_self_us", lt.httpSelf},
		{"resilience.admission_self_us", lt.admissionSelf},
		{"cluster.route_self_us", lt.routeSelf},
		{"ha.ensemble_self_us", lt.ensembleSelf},
		{"pdp.decide_us", lt.engine},
		{"pip.resolve_us", lt.pipResolve},
		{"ladder.server_codec_us", lt.serverCodec},
		{"ladder.explained_us", lt.top},
	} {
		rep.set(m.name, "us", m.v, lt.calls)
	}
	for _, m := range []struct {
		name string
		v    float64
	}{
		{"analysis.gate_us", lt.gate},
		{"pap.put_self_us", lt.putSelf},
		{"store.append_us", lt.append},
		{"pdp.apply_update_us", lt.applyUpdate},
	} {
		rep.set(m.name, "us", m.v, ladderWrites)
	}
	p50, p50Traced := median(untraced.tally.latency), median(traced.tally.latency)
	rep.set("decide_p50_traced_ms", "ms", ms(p50Traced), len(traced.tally.latency))
	rep.set("trace.overhead_share", "share", (p50Traced-p50)/p50, len(traced.tally.latency))
	// What no named layer owns: the daemon's p50 minus the whole
	// in-process rung (kernel TCP between processes, scheduler, GC, and
	// on the open loop the queue behind two connections).
	rep.set("ladder.unexplained_us", "us", p50/1e3-lt.top, len(untraced.tally.latency))
	for _, def := range perLayerMetrics {
		rep.Result.Metrics[def.name] = value{Value: rep.Metrics[def.name].Value, Unit: def.unit}
	}
	return nil
}

// ratio is a/b, or 0 when the denominator is 0 (the layer saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// boundaryCounts records the /stats and /metrics deltas across a window.
func (rep *report) boundaryCounts(m *measured) {
	b, a := m.before, m.after
	rep.Counts = map[string]float64{
		"pdp.evaluations":       a.evaluations - b.evaluations,
		"pdp.cache_hits":        a.cacheHits - b.cacheHits,
		"pdp.interpreted":       a.interpreted - b.interpreted,
		"cluster.routed":        a.routed - b.routed,
		"cluster.batch_routed":  a.batchRouted - b.batchRouted,
		"pip.hits":              a.pipHits - b.pipHits,
		"pip.misses":            a.pipMisses - b.pipMisses,
		"pip.coalesced":         a.pipCoalesced - b.pipCoalesced,
		"store.wal_appends":     a.walAppends - b.walAppends,
		"store.wal_fsyncs":      a.walFsyncs - b.walFsyncs,
		"analysis.gate_checks":  a.gateChecks - b.gateChecks,
		"admission.rejected":    a.admissionRejected - b.admissionRejected,
		"pdpd.refresh_errors":   a.refreshErrors - b.refreshErrors,
		"pdp.root_children":     a.rootChildren,
		"pdp.compiled_children": a.compiledChildren,
		"store.wal_appends_abs": a.walAppends,
		"store.wal_fsyncs_abs":  a.walFsyncs,
	}
	c := rep.Counts
	decided := c["pdp.evaluations"] + c["pdp.cache_hits"]
	rep.set("pdp.cache_hit_ratio", "share", ratio(c["pdp.cache_hits"], decided), int(decided))
	rep.set("pdp.interpreted_share", "share", ratio(c["pdp.interpreted"], c["pdp.evaluations"]), int(c["pdp.evaluations"]))
	lookups := c["pip.hits"] + c["pip.misses"]
	rep.set("pip.hit_ratio", "share", ratio(c["pip.hits"], lookups), int(lookups))
	// Over the daemon's whole life, seeding included: the seed base is the
	// bulk of the writes on every workload but churn.mixed.
	rep.set("store.fsyncs_per_write", "count", ratio(a.walFsyncs, a.walAppends), int(a.walAppends))
	rep.set("resilience.admission_rejected", "count", c["admission.rejected"], 1)
}

// emit prints every metric by name with its unit and sample count, then
// the contract's result object as the last line.
func (rep *report) emit(w io.Writer) error {
	for _, name := range rep.order {
		v := rep.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s n=%d\n", rep.Workload, name, formatValue(v.Value), v.Unit, v.N)
	}
	reasons := make([]string, 0, len(rep.Failures))
	for reason := range rep.Failures {
		reasons = append(reasons, reason)
	}
	slices.Sort(reasons)
	for _, reason := range reasons {
		fmt.Fprintf(w, "%s failed.%s %d count\n", rep.Workload, reason, rep.Failures[reason])
	}
	if rep.Invalid != "" {
		fmt.Fprintf(w, "%s INVALID %s\n", rep.Workload, rep.Invalid)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// write stores the report under bench/out.
func (rep *report) write() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	mode := 0
	if rep.Traced {
		mode = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", rep.Workload, rep.Seed, mode, time.Now().UnixNano())
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), append(data, '\n'), 0o644)
}

// outDir is where output files go, relative to the checkout root.
const outDir = "bench/out"

// reasonCounts names each failure reason of a tally.
func (t *tally) reasonCounts() map[string]int {
	return map[string]int{
		"dropped": t.dropped, "transport": t.transport, "shed": t.shed, "missed_deadline": t.missed,
		"inconclusive": t.inconclusive, "wrong": t.wrong, "write_unacknowledged": t.writes - t.writesOK,
	}
}

// reasons renders the non-zero failure reasons.
func (t *tally) reasons() string {
	var parts []string
	for reason, n := range t.reasonCounts() {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", reason, n))
		}
	}
	if parts == nil {
		return "none"
	}
	return strings.Join(parts, " ")
}
