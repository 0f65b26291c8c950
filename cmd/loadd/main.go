// Command loadd is the end-to-end dependability check against a real pdpd:
// it spawns a 2-shard, 2-replica daemon, sends it one fixed load shape from
// kernel-paced senders, runs a fault schedule against it (internal/chaos),
// and fails on any failed decision that no declared fault excuses.
//
// The load is open-loop: Poisson arrivals at 400/s over 10 000 warm
// subjects and 256 Zipf(1.2)-popular resources, each decision under a
// 250 ms budget counted from the instant it was due. Senders sleep to each
// due instant in the kernel; one that falls behind sends late rather than
// queueing, and the lateness is reported.
//
// The schedule composes three fault classes:
//
//	t=-chaos-crash      one replica of the first shard crashes
//	                    (/admin/chaos); failover must mask it, so it
//	                    declares no fault window
//	t=-chaos-partition  every replica of the last shard goes down;
//	                    decisions for its resources fail closed (or, with
//	                    -resilience, answer served-stale) until the heal
//	t=-chaos-kill       the daemon is killed with SIGKILL and restarted;
//	                    recovery must come from the WAL
//
// Each fault is repaired -chaos-heal after it fires; 0 disables a fault.
// The partition and the kill each declare a fault window, from the instant
// the fault fires to settle after its repair returns. A decision that fails
// (Indeterminate) is excused only if its [due, done] interval intersects a
// window; any other failure fails the run. Throughout, the harness sweeps
// the safety invariants (decisions never change, acknowledged writes never
// disappear, expired budgets always fail closed) and finishes with strict
// recovery checks; the load runs until those return.
//
// With -resilience the daemon arms its shard breakers and stale serving,
// without a fresh TTL (-cache), which would answer warm keys before the
// stale path could: the harness then also requires the staleness bound on
// every probe and, while a partition holds, at least one stale serve
// reported by the daemon itself.
//
// Usage:
//
//	loadd -pdpd-bin ./pdpd -chaos-crash 3s -chaos-partition 7s \
//	      -chaos-kill 11s -chaos-heal 2s
//	loadd -pdpd-bin ./pdpd -resilience -chaos-crash 0 -chaos-kill 0 \
//	      -chaos-partition 6s -chaos-heal 8s
//
// Exit codes: 0 clean, 1 a check failed, 2 usage or setup error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/pdp"
	"repro/internal/workload"
)

const (
	shards   = 2
	replicas = 2
	// rate is the mean arrival rate of the load, per second.
	rate = 400
	// senders bounds the decisions in flight; at rate, each sender has
	// 20 ms per decision on average.
	senders        = 8
	decisionBudget = 250 * time.Millisecond
	// staleGrace and breakerCooldown are handed to the daemon with
	// -resilience.
	staleGrace      = 30 * time.Second
	breakerCooldown = time.Second
	// settle is how long after a repair returns its fault may still fail
	// decisions: a shard breaker stays open up to one cooldown past the
	// revive, and one more if its half-open probe landed just before it.
	settle = 2 * breakerCooldown
	// recoveryWindow is the grace of the strict post-repair checks.
	recoveryWindow = 15 * time.Second
)

// loadShape is the population the load draws from and the daemon serves.
var loadShape = workload.Config{
	Users:            10000,
	Resources:        256,
	Roles:            16,
	ZipfS:            1.2,
	MeanInterarrival: time.Second / rate,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entrypoint.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pdpdBin := fs.String("pdpd-bin", "", "pdpd binary to spawn (required)")
	resilienceOn := fs.Bool("resilience", false, "spawn pdpd with shard breakers and bounded-staleness degraded mode armed")
	crash := fs.Duration("chaos-crash", 3*time.Second, "replica-crash offset (0 disables)")
	partition := fs.Duration("chaos-partition", 7*time.Second, "shard-partition offset (0 disables)")
	kill := fs.Duration("chaos-kill", 11*time.Second, "kill -9 offset (0 disables)")
	heal := fs.Duration("chaos-heal", 2*time.Second, "how long each fault lasts before its repair")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "loadd: %v\n", err)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	case *pdpdBin == "":
		return fail(fmt.Errorf("-pdpd-bin is required"))
	case *crash < 0 || *partition < 0 || *kill < 0:
		return fail(fmt.Errorf("fault offsets must not be negative"))
	case *heal <= 0:
		return fail(fmt.Errorf("-chaos-heal must be positive"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	workDir, err := os.MkdirTemp("", "loadd-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(workDir)
	proc, err := spawnDaemon(ctx, *pdpdBin, workDir, *resilienceOn, stderr)
	if err != nil {
		return fail(err)
	}
	defer proc.Stop()
	endpoint := "http://" + proc.addr
	fmt.Fprintf(stdout, "loadd: pdpd up on %s (%d shards x %d replicas, resilience %v)\n",
		proc.addr, shards, replicas, *resilienceOn)

	target := pdp.NewClient(endpoint+"/decide", "loadd", "pdpd")
	orch, windows, err := buildSchedule(ctx, scheduleConfig{
		endpoint: endpoint, target: target, proc: proc, resilience: *resilienceOn,
		crash: *crash, partition: *partition, kill: *kill, heal: *heal,
	})
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "loadd: %d/s from %d senders, %v budget, until the recovery checks return\n",
		rate, senders, decisionBudget)
	start := time.Now()
	stopLoad := make(chan struct{})
	samplesCh := make(chan []sample, 1)
	go func() { samplesCh <- pace(ctx, target, stopLoad) }()
	rep := orch.Run(ctx)
	close(stopLoad)
	samples := <-samplesCh

	fmt.Fprintln(stdout, rep.String())
	summarize(stdout, samples, start)
	v := classify(samples, windows)
	v.print(stdout, windows, start)

	failed := false
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "loadd: FAIL: interrupted before the run completed")
		failed = true
	}
	if !rep.Ok() {
		fmt.Fprintln(stderr, "loadd: FAIL: chaos invariants violated or a fault action failed")
		failed = true
	}
	if v.unexcused > 0 {
		fmt.Fprintf(stderr, "loadd: FAIL: %d failed decisions outside every fault window\n", v.unexcused)
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}
