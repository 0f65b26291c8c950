// Command loadd is the open-loop load harness and chaos driver: it fires a
// catalogued scenario (internal/loadgen) at a real pdpd over HTTP — one it
// spawned itself (-spawn) or one already running (-addr) — optionally runs
// a timed fault schedule against it (internal/chaos), and emits the run as
// a machine-readable benchfmt document for the committed BENCH_<PR>.json
// perf trajectory.
//
// The chaos schedule composes three fault classes against a live cluster:
//
//	t=-chaos-crash      one replica of the first shard crashes
//	                    (/admin/chaos; the ensemble must fail over)
//	t=-chaos-partition  every replica of the second shard goes down —
//	                    the shard group is unreachable, decisions for its
//	                    resources fail closed until the heal
//	t=-chaos-kill       the spawned pdpd is killed with SIGKILL and
//	                    restarted; recovery must come from the WAL
//
// Each fault heals -chaos-heal later. Throughout, the harness sweeps the
// safety invariants (decisions never change, acknowledged writes never
// disappear, expired budgets always fail closed) and finishes with strict
// recovery checks. Violations, goodput below -min-goodput, or p99 above
// -max-p99 exit non-zero, so CI can gate on a live run.
//
// With -resilience the spawned pdpd arms its breakers and its
// last-known-good layer, so the brownout scenario can prove degraded mode
// end to end: while the partition holds, warm keys answer served-stale
// (counted by the daemon and gated by -min-stale) instead of failing
// closed, and the harness reports server-side admission rejections
// (rejected) and degraded serves separately from its own queue shed.
//
// Usage:
//
//	loadd -spawn -pdpd-bin ./pdpd -scenario steady-zipf -duration 45s \
//	      -chaos -out BENCH_PR8.json -min-goodput 100 -max-p99 2s
//	loadd -spawn -pdpd-bin ./pdpd -scenario brownout -duration 20s \
//	      -resilience -chaos -chaos-crash 0 -chaos-kill 0 \
//	      -chaos-partition 5s -chaos-heal 8s -min-stale 1 -min-goodput 50
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/chaos"
	"repro/internal/loadgen"
	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/workload"
	"repro/internal/xacml"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entrypoint. Exit codes: 0 clean, 1 a gate failed
// (chaos invariant violation, goodput or p99 out of bounds), 2 usage or
// setup error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenarioName := fs.String("scenario", "steady-zipf", "catalog scenario to run (see internal/loadgen)")
	duration := fs.Duration("duration", 30*time.Second, "open-loop run length")
	rate := fs.Float64("rate", 0, "arrival rate override in requests/s (0 keeps the scenario default)")
	addr := fs.String("addr", "", "host:port of a running pdpd (mutually exclusive with -spawn)")
	spawn := fs.Bool("spawn", false, "spawn a pdpd cluster for the run (needs -pdpd-bin)")
	pdpdBin := fs.String("pdpd-bin", "", "pdpd binary to spawn")
	shards := fs.Int("shards", 2, "spawned cluster shard count")
	replicas := fs.Int("replicas", 2, "spawned cluster replicas per shard")
	dataDir := fs.String("data-dir", "", "spawned daemon WAL directory (default: fresh temp dir)")
	outPath := fs.String("out", "", "write (or merge into) a benchfmt JSON document")
	minGoodput := fs.Float64("min-goodput", 0, "fail (exit 1) when conclusive decisions/s fall below this")
	maxP99 := fs.Duration("max-p99", 0, "fail (exit 1) when p99 latency exceeds this")
	resilienceOn := fs.Bool("resilience", false, "spawn pdpd with the resilience layer armed (-breaker plus -stale-grace below); brownout runs need this")
	staleGraceFlag := fs.Duration("stale-grace", 30*time.Second, "degraded-mode staleness bound forwarded to the spawned pdpd (with -resilience)")
	minStale := fs.Int64("min-stale", 0, "fail (exit 1) when the daemon served fewer than this many stale decisions (repro_stale_served_total); proves degraded mode engaged during a brownout")
	chaosOn := fs.Bool("chaos", false, "run the fault schedule during the load run")
	chaosCrash := fs.Duration("chaos-crash", 10*time.Second, "replica-crash offset (0 disables)")
	chaosPartition := fs.Duration("chaos-partition", 20*time.Second, "shard-partition offset (0 disables)")
	chaosKill := fs.Duration("chaos-kill", 30*time.Second, "kill -9 offset (0 disables; needs -spawn)")
	chaosHeal := fs.Duration("chaos-heal", 5*time.Second, "how long each fault lasts before its repair")
	recoveryWindow := fs.Duration("recovery-window", 10*time.Second, "grace for the strict post-repair recovery checks")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "loadd: %v\n", err)
		return 2
	}
	scenario, err := loadgen.Lookup(*scenarioName)
	if err != nil {
		return fail(err)
	}
	scenario = scenario.WithDuration(*duration).WithRate(*rate)
	if *spawn == (*addr != "") {
		return fail(fmt.Errorf("exactly one of -spawn or -addr is required"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var proc *daemon
	endpoint := "http://" + *addr
	if *spawn {
		proc, err = spawnDaemon(ctx, spawnConfig{
			bin: *pdpdBin, shards: *shards, replicas: *replicas,
			dataDir: *dataDir, chaos: *chaosOn, scenario: scenario, log: stderr,
			resilience: *resilienceOn, staleGrace: *staleGraceFlag,
		})
		if err != nil {
			return fail(err)
		}
		defer proc.Stop()
		endpoint = "http://" + proc.addr
		fmt.Fprintf(stdout, "loadd: pdpd up on %s (%d shards x %d replicas)\n", proc.addr, *shards, *replicas)
	}

	target := pdp.NewClient(endpoint+"/decide", "loadd", "pdpd")
	admin := loadgen.HTTPAdmin{Endpoint: endpoint + "/admin/policy"}
	driver, err := loadgen.New(scenario.Name, scenario.Config, target, admin)
	if err != nil {
		return fail(err)
	}

	var orch *chaos.Orchestrator
	if *chaosOn {
		orch, err = buildSchedule(ctx, scheduleConfig{
			endpoint: endpoint, target: target, admin: admin,
			workload: scenario.Config.Workload, proc: proc,
			crash: *chaosCrash, partition: *chaosPartition, kill: *chaosKill,
			heal: *chaosHeal, recovery: *recoveryWindow,
		})
		if err != nil {
			return fail(err)
		}
	}

	fmt.Fprintf(stdout, "loadd: %s for %v against %s\n", scenario.Name, *duration, endpoint)
	resCh := make(chan loadgen.Result, 1)
	go func() { resCh <- driver.Run(ctx) }()
	var chaosRep *chaos.Report
	if orch != nil {
		chaosRep = orch.Run(ctx)
	}
	res := <-resCh

	fmt.Fprintln(stdout, res.String())
	if chaosRep != nil {
		fmt.Fprintln(stdout, chaosRep.String())
	}
	if *outPath != "" {
		if err := writeDoc(*outPath, res.Benchmark()); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "loadd: wrote %s\n", *outPath)
	}

	failed := false
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "loadd: FAIL: interrupted before the run completed")
		failed = true
	}
	if chaosRep != nil && !chaosRep.Ok() {
		fmt.Fprintln(stderr, "loadd: FAIL: chaos invariants violated")
		failed = true
	}
	if *minGoodput > 0 && res.GoodputPerSec() < *minGoodput {
		fmt.Fprintf(stderr, "loadd: FAIL: goodput %.1f/s below floor %.1f/s\n", res.GoodputPerSec(), *minGoodput)
		failed = true
	}
	if *maxP99 > 0 && res.Latency.Quantile(0.99) > *maxP99 {
		fmt.Fprintf(stderr, "loadd: FAIL: p99 %v above ceiling %v\n", res.Latency.Quantile(0.99), *maxP99)
		failed = true
	}
	if *minStale > 0 {
		// The degraded-mode proof: the daemon itself must report having
		// served stale decisions, not just the harness having survived.
		served, err := scrapeCounter(ctx, endpoint+"/metrics", "repro_stale_served_total")
		switch {
		case err != nil:
			fmt.Fprintf(stderr, "loadd: FAIL: stale-served scrape: %v\n", err)
			failed = true
		case served < *minStale:
			fmt.Fprintf(stderr, "loadd: FAIL: %d stale decisions served, floor is %d (degraded mode never engaged?)\n", served, *minStale)
			failed = true
		default:
			fmt.Fprintf(stdout, "loadd: degraded mode served %d stale decisions (floor %d)\n", served, *minStale)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// writeDoc merges one benchmark entry into the benchfmt document at path:
// an existing document keeps its other entries (same-name entries are
// replaced), so a harness run and a `benchjson` conversion of `go test
// -bench` output can share one committed BENCH_<PR>.json.
func writeDoc(path string, b benchfmt.Benchmark) error {
	doc := &benchfmt.Doc{
		Goos:   runtime.GOOS,
		Goarch: runtime.GOARCH,
		Pkg:    "repro/cmd/loadd",
		CPU:    fmt.Sprintf("%d logical CPUs", runtime.NumCPU()),
	}
	if data, err := os.ReadFile(path); err == nil {
		if existing, err := benchfmt.Read(bytes.NewReader(data)); err == nil {
			existing.Benchmarks = deleteEntry(existing.Benchmarks, b.Name)
			doc = existing
		}
	}
	doc.Benchmarks = append(doc.Benchmarks, b)
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func deleteEntry(entries []benchfmt.Benchmark, name string) []benchfmt.Benchmark {
	out := entries[:0]
	for _, e := range entries {
		if e.Name != name {
			out = append(out, e)
		}
	}
	return out
}

// spawnConfig parameterises the pdpd the harness starts for itself.
type spawnConfig struct {
	bin        string
	shards     int
	replicas   int
	dataDir    string
	chaos      bool
	resilience bool
	staleGrace time.Duration
	scenario   loadgen.Scenario
	log        io.Writer
}

// spawnDaemon materialises the scenario's policy base (and, for cold
// scenarios, its subject directory) on disk and starts the real pdpd over
// them — the same artifacts an operator would deploy.
func spawnDaemon(ctx context.Context, cfg spawnConfig) (*daemon, error) {
	if cfg.bin == "" {
		return nil, fmt.Errorf("-spawn needs -pdpd-bin")
	}
	workDir, err := os.MkdirTemp("", "loadd-*")
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(cfg.scenario.Config.Workload)
	seed, err := xacml.MarshalJSON(gen.PolicyBase("loadd-root"))
	if err != nil {
		return nil, err
	}
	seedPath := filepath.Join(workDir, "seed.json")
	if err := os.WriteFile(seedPath, seed, 0o644); err != nil {
		return nil, err
	}
	if cfg.dataDir == "" {
		cfg.dataDir = filepath.Join(workDir, "data")
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-policy", seedPath,
		"-addr", addr,
		"-data-dir", cfg.dataDir,
		"-shards", fmt.Sprint(cfg.shards),
		"-replicas", fmt.Sprint(cfg.replicas),
		"-cache", "30s",
	}
	if cfg.chaos {
		args = append(args, "-chaos")
	}
	if cfg.resilience {
		args = append(args, "-breaker", "-stale-grace", cfg.staleGrace.String())
	}
	if cfg.scenario.Config.Cold {
		subjectsPath := filepath.Join(workDir, "subjects.json")
		if err := writeSubjects(subjectsPath, cfg.scenario.Config.Workload); err != nil {
			return nil, err
		}
		args = append(args, "-subjects", subjectsPath)
	}
	proc := &daemon{bin: cfg.bin, args: args, addr: addr, log: cfg.log}
	if err := proc.Start(ctx); err != nil {
		return nil, err
	}
	return proc, nil
}

// writeSubjects renders the workload's subject population in pdpd's
// -subjects format, so cold requests resolve through the daemon's PIP
// exactly as warm ones carry their attributes inline.
func writeSubjects(path string, wcfg workload.Config) error {
	type subject struct {
		ID    string   `json:"id"`
		Roles []string `json:"roles"`
	}
	roles := wcfg.Roles
	if roles <= 0 {
		roles = 1
	}
	subjects := make([]subject, wcfg.Users)
	for i := range subjects {
		subjects[i] = subject{ID: workload.UserID(i), Roles: []string{workload.RoleID(i % roles)}}
	}
	data, err := json.Marshal(subjects)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// warmProbe is a request the workload base permits: role r reads resource
// r, which it owns (resource i is owned by role i mod Roles).
func warmProbe(wcfg workload.Config, i int) *policy.Request {
	roles := wcfg.Roles
	if roles <= 0 {
		roles = 1
	}
	role := i % roles
	return policy.NewAccessRequest(workload.UserID(i), workload.ResourceID(role), "read").
		Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String(workload.RoleID(role)))
}

// sentinelPolicy is an acknowledged-write probe policy on a resource
// outside the workload's space, so churn rewrites never touch it.
func sentinelPolicy(i int) (*policy.Policy, *policy.Request) {
	res := fmt.Sprintf("loadd-acked-res-%d", i)
	pol := policy.NewPolicy(fmt.Sprintf("loadd-acked-%d", i)).
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID(res)).
		Rule(policy.Permit("allow-read").When(policy.MatchActionID("read")).Build()).
		Rule(policy.Deny("default").Build()).
		Build()
	return pol, policy.NewAccessRequest("loadd-auditor", res, "read")
}
