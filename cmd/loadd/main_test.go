package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/workload"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRunUsageErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-pdpd")
	cases := [][]string{
		{},                                   // no -pdpd-bin
		{"-pdpd-bin", missing, "extra"},      // stray argument
		{"-pdpd-bin", missing, "-rate", "1"}, // removed flag
		{"-pdpd-bin", missing, "-addr", "127.0.0.1:1"},
		{"-pdpd-bin", missing, "-chaos-heal", "0"},
		{"-pdpd-bin", missing, "-chaos-partition", "-1s"},
		{"-pdpd-bin", missing, "-resilience"}, // binary does not exist
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestClassifyWindows(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	failedAt := func(due, done int) sample {
		return sample{due: at(due), sent: at(due), done: at(done), decision: policy.DecisionIndeterminate}
	}
	// The partition window as buildSchedule declares it: open from the
	// injection at 1s to settle after the repair returned at 2s.
	partition := func() *window { return &window{name: "partition", from: at(1000), to: at(2000).Add(settle)} }
	cases := []struct {
		name      string
		windows   []*window
		s         sample
		excused   int
		unexcused int
	}{
		{"inside", []*window{partition()}, failedAt(1500, 1510), 1, 0},
		{"before", []*window{partition()}, failedAt(500, 510), 0, 1},
		{"after settle", []*window{partition()}, failedAt(2100+int(settle/time.Millisecond), 2200+int(settle/time.Millisecond)), 0, 1},
		{"straddles opening", []*window{partition()}, failedAt(900, 1100), 1, 0},
		{"straddles closing", []*window{partition()}, failedAt(1990+int(settle/time.Millisecond), 2300+int(settle/time.Millisecond)), 1, 0},
		{"repair never returned", []*window{{name: "partition", from: at(1000)}}, failedAt(9000, 9010), 1, 0},
		{"fault never fired", []*window{{name: "partition"}}, failedAt(1500, 1510), 0, 1},
		// A single-replica crash declares no window: failover must mask it,
		// so a failure while it holds is unexcused.
		{"during a crash", nil, failedAt(1500, 1510), 0, 1},
		{"conclusive outside", []*window{partition()}, sample{due: at(100), done: at(101), decision: policy.DecisionPermit}, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := classify([]sample{c.s}, c.windows)
			excused := 0
			for _, n := range v.excused {
				excused += n
			}
			if excused != c.excused || v.unexcused != c.unexcused {
				t.Fatalf("excused %d unexcused %d, want %d and %d", excused, v.unexcused, c.excused, c.unexcused)
			}
		})
	}
}

// paceFor runs pace against target for d and returns its samples.
func paceFor(target policy.Decider, d time.Duration) []sample {
	stop := make(chan struct{})
	time.AfterFunc(d, func() { close(stop) })
	return pace(context.Background(), target, stop)
}

func TestPaceAccounting(t *testing.T) {
	engine := pdp.New("loadd-test")
	if err := engine.SetRoot(workload.NewGenerator(loadShape).PolicyBase("root")); err != nil {
		t.Fatal(err)
	}
	samples := paceFor(engine, 300*time.Millisecond)
	// ~120 arrivals at 400/s; a Poisson count this far off means the
	// pacer is not pacing.
	if n := len(samples); n < 60 || n > 240 {
		t.Fatalf("%d decisions in 300ms at %d/s", n, rate)
	}
	for _, s := range samples {
		if s.sent.Before(s.due) || s.done.Before(s.sent) {
			t.Fatalf("sample out of order: due %v sent %v done %v", s.due, s.sent, s.done)
		}
		if s.failed() {
			t.Fatalf("healthy engine answered Indeterminate")
		}
	}
}

// slowTarget models a wedged decision point: each decision takes delay
// unless the caller's deadline fires first (fail-closed Indeterminate).
type slowTarget struct {
	delay   time.Duration
	decided atomic.Int64
}

func (s *slowTarget) DecideScatterAt(ctx context.Context, reqs []*policy.Request, positions []int, _ time.Time, _ policy.Resolver, out []policy.Result) {
	for i, req := range reqs {
		if positions == nil || slices.Contains(positions, i) {
			out[i] = s.decide(ctx, req)
		}
	}
}

func (s *slowTarget) decide(ctx context.Context, _ *policy.Request) policy.Result {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-t.C:
		s.decided.Add(1)
		return policy.Result{Decision: policy.DecisionPermit}
	case <-ctx.Done():
		return policy.Result{Decision: policy.DecisionIndeterminate, Err: ctx.Err()}
	}
}

// TestPaceStopsPromptly: closing stop ends the run within a decision
// budget even when the target would hold every decision far longer.
func TestPaceStopsPromptly(t *testing.T) {
	start := time.Now()
	samples := paceFor(&slowTarget{delay: 5 * time.Second}, 100*time.Millisecond)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pace ran %v after a 100ms stop against a 5s stall", elapsed)
	}
	if len(samples) == 0 {
		t.Fatal("nothing sent before stop")
	}
}

// TestPaceDeadlineFailsClosed: against a stalled target every decision
// fails closed within its budget.
func TestPaceDeadlineFailsClosed(t *testing.T) {
	target := &slowTarget{delay: time.Second}
	samples := paceFor(target, 400*time.Millisecond)
	if len(samples) == 0 {
		t.Fatal("nothing sent")
	}
	for _, s := range samples {
		if !s.failed() {
			t.Fatalf("stalled target yielded %v", s.decision)
		}
		if s.done.Sub(s.due) > decisionBudget+100*time.Millisecond {
			t.Fatalf("decision outran its %v budget: answered %v after due", decisionBudget, s.done.Sub(s.due))
		}
	}
	if target.decided.Load() != 0 {
		t.Fatalf("%d decisions outran a %v budget on a 1s stall", target.decided.Load(), decisionBudget)
	}
}

// TestPaceStalledSendersSendLate: senders held up by a stalled target fall
// behind the schedule and send late — the overload shows as lateness
// rather than as dropped or queued arrivals.
func TestPaceStalledSendersSendLate(t *testing.T) {
	samples := paceFor(&slowTarget{delay: time.Second}, 400*time.Millisecond)
	var late time.Duration
	for _, s := range samples {
		late = max(late, s.sent.Sub(s.due))
	}
	// 8 senders held 250ms each serve 32/s of a 400/s schedule.
	if late < 50*time.Millisecond {
		t.Fatalf("max lateness %v over %d decisions: senders did not fall behind a stalled target", late, len(samples))
	}
}

// policyServer accepts one well-formed policy POST and answers 409 to the
// rest.
func policyServer(t *testing.T) *httptest.Server {
	var got atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.Header.Get("Content-Type") != "application/json" {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		if got.Add(1) > 1 {
			http.Error(w, "conflict", http.StatusConflict)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestPutPolicy(t *testing.T) {
	srv := policyServer(t)
	pol, _ := sentinelPolicy(0)
	if err := putPolicy(context.Background(), srv.URL, pol); err != nil {
		t.Fatalf("200 put failed: %v", err)
	}
}

func TestPutPolicyRejectionIsError(t *testing.T) {
	srv := policyServer(t)
	pol, _ := sentinelPolicy(0)
	if err := putPolicy(context.Background(), srv.URL, pol); err != nil {
		t.Fatalf("first put failed: %v", err)
	}
	if err := putPolicy(context.Background(), srv.URL, pol); err == nil {
		t.Fatal("409 put acknowledged as success")
	}
}

// TestEndToEndChaosRunAgainstRealDaemon is the acceptance run: build the
// real pdpd, spawn the 2x2 cluster, and drive the paced load while the
// compressed schedule crashes a replica, partitions a shard, kill -9s the
// daemon and recovers it through the WAL — then require a clean exit, held
// invariants, and no failed decision outside the declared fault windows.
func TestEndToEndChaosRunAgainstRealDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the real daemon")
	}
	bin := filepath.Join(t.TempDir(), "pdpd")
	build := exec.Command("go", "build", "-o", bin, "../pdpd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ../pdpd: %v\n%s", err, out)
	}

	code, stdout, stderr := runCLI(t,
		"-pdpd-bin", bin,
		"-chaos-crash", "200ms",
		"-chaos-partition", "500ms",
		"-chaos-kill", "800ms",
		"-chaos-heal", "250ms",
	)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, want := range []string{
		"crash", "partition", "kill -9 pdpd", "restart pdpd (WAL recovery)", "invariants: all held",
		"unexcused failures: 0\n",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
}
