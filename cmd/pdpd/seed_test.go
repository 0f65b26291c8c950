package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/analysis"
	"repro/internal/audit"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xacml"
)

// TestDaemonSeedBatch starts the real daemon on a fresh data directory and
// checks that the seed base is one durable write: one fsync carrying every
// seed record. It then kills the daemon, tears the WAL in the middle of
// that write, and restarts: recovery keeps an in-order prefix of the seed,
// the file seeds the rest, and every policy ends up served and logged at
// version 1 exactly once. -snapshot-every stays above the seed size so
// the WAL tail is never compacted away.
func TestDaemonSeedBatch(t *testing.T) {
	const n = 64
	workDir := t.TempDir()
	bin := buildDaemon(t, workDir)
	seedDoc, err := xacml.MarshalJSON(testBase(n))
	if err != nil {
		t.Fatal(err)
	}
	seedPath := filepath.Join(workDir, "seed.json")
	if err := os.WriteFile(seedPath, seedDoc, 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(workDir, "data")
	addr := freeAddr(t)
	start := func() *exec.Cmd {
		cmd := exec.Command(bin, "-policy", seedPath, "-addr", addr,
			"-data-dir", dataDir, "-snapshot-every", fmt.Sprint(4*n))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start pdpd: %v", err)
		}
		waitHealthy(t, addr)
		return cmd
	}
	kill := func(cmd *exec.Cmd) {
		if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		_ = cmd.Wait()
	}

	daemon := start()
	defer func() { _ = daemon.Process.Kill() }()
	policies, st := persistenceStats(t, addr)
	if policies != n || st.Appends != n || st.Fsyncs != 1 || st.Snapshots != 0 {
		t.Fatalf("fresh start: %d policies, persistence %+v; want %d policies from %d appends behind 1 fsync", policies, st, n, n)
	}
	kill(daemon)

	segs, err := filepath.Glob(filepath.Join(dataDir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("WAL segments = %v (%v), want exactly one", segs, err)
	}
	wal, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], wal[:len(wal)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	daemon = start()
	policies, st = persistenceStats(t, addr)
	kept := st.RecoveredTail
	if kept == 0 || kept >= n || st.TruncatedBytes == 0 {
		t.Fatalf("recovery kept %d of %d seed records (%d torn bytes): want a torn mid-batch prefix", kept, n, st.TruncatedBytes)
	}
	if policies != n || st.LastSeq != n || st.Appends != uint64(n-kept) || st.Fsyncs != 1 {
		t.Fatalf("restart: %d policies, persistence %+v; want %d policies, the missing %d seeded behind 1 fsync", policies, st, n, n-kept)
	}
	probes := make([]struct{ res, action string }, n)
	for i := range probes {
		probes[i].res, probes[i].action = fmt.Sprintf("res-%d", i), "read"
	}
	for i, d := range decideAll(t, addr, probes) {
		if d != policy.DecisionPermit {
			t.Fatalf("res-%d read after torn restart = %v, want permit", i, d)
		}
	}
	kill(daemon)

	lg, err := store.Open(dataDir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	seen := make(map[string]bool, n)
	for _, u := range lg.RecoveredTail() {
		if seen[u.ID] || u.Deleted || u.Version != 1 {
			t.Fatalf("WAL record %s (version %d, deleted %v) after %v", u.ID, u.Version, u.Deleted, seen)
		}
		seen[u.ID] = true
	}
	if len(seen) != n {
		t.Fatalf("WAL holds %d distinct policies, want %d", len(seen), n)
	}
}

// persistenceStats reads the policy count and the WAL counters off /stats.
func persistenceStats(t *testing.T, addr string) (int, store.Stats) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Policies    int          `json:"policies"`
		Persistence *store.Stats `json:"persistence"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Persistence == nil {
		t.Fatal("/stats has no persistence block")
	}
	return out.Policies, *out.Persistence
}

// coldBase is the cold benchmark workloads' seed shape: n resource
// policies over 16 roles plus k target-less clearance vetoes.
func coldBase(n, k int) *policy.PolicySet {
	b := policy.NewPolicySet("cold-root").Combining(policy.DenyOverrides)
	for i := 0; i < n; i++ {
		b.Add(workload.ResourcePolicy(i, 16))
	}
	for j := 0; j < k; j++ {
		b.Add(policy.NewPolicy(fmt.Sprintf("veto-%02d", j)).
			Combining(policy.DenyOverrides).
			Rule(policy.Deny("low-clearance").
				If(policy.Call(policy.FnLessThan,
					policy.SubjectAttr(policy.AttrClearance),
					policy.Lit(policy.Integer(int64(j+1))))).
				Build()).
			Build())
	}
	return b.Build()
}

// BenchmarkColdStart times newAdmin — seed write, root install, lint
// Install — on a fresh WAL under the cold 4096 + 32 veto base and a
// 2-shard × 2-replica cluster, the daemon's start-up after the policy
// file is parsed. fsyncs/op counts the WAL fsyncs the seed cost;
// B/op and allocs/op count the start-up's garbage.
func BenchmarkColdStart(b *testing.B) {
	b.ReportAllocs()
	root := coldBase(4096, 32)
	log.SetOutput(io.Discard) // the unsorted-root notice, once per op
	defer log.SetOutput(os.Stderr)
	var fsyncs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lg, err := store.Open(filepath.Join(b.TempDir(), "data"), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		point, err := buildDecisionPoint(2, 2, "failover", nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := newAdmin(point, root, lg, analysis.ModeWarn, trace.NewTracer(trace.Options{}), audit.NewLog(64)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		fsyncs += lg.Stats().Fsyncs
		if err := lg.Crash(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
	b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/op")
}
