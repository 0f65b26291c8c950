package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/xacml"
)

// TestDaemonCrashRecovery is the end-to-end recovery smoke (also run as a
// dedicated CI step): start the real pdpd binary with -data-dir, write
// and delete policies over /admin/policy, record live decisions, kill -9
// the process, restart it on the same data directory, and require the
// recovered daemon to serve the exact same decisions — including the
// delete, which the seed policy file still contains and must NOT
// resurrect. A final SIGTERM checks the graceful-shutdown path exits
// cleanly.
func TestDaemonCrashRecovery(t *testing.T) {
	workDir := t.TempDir()
	bin := buildDaemon(t, workDir)

	seedDoc, err := xacml.MarshalJSON(testBase(3)) // pol-res-0..2
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
		cmd := exec.Command(bin,
			"-policy", seedPath, "-addr", addr,
			"-data-dir", dataDir, "-snapshot-every", "4")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start pdpd: %v", err)
		}
		waitHealthy(t, addr)
		return cmd
	}

	daemon := start()
	defer func() { _ = daemon.Process.Kill() }()

	// Live administration: a brand-new policy and a delete of a seeded one.
	extra, err := xacml.MarshalJSON(policy.NewPolicy("pol-res-9").
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID("res-9")).
		Rule(policy.Permit("allow").When(policy.MatchActionID("read")).Build()).
		Rule(policy.Deny("default").Build()).
		Build())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/admin/policy", "application/json", bytes.NewReader(extra))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /admin/policy: %v (status %v)", err, resp)
	}
	resp.Body.Close()
	del, err := http.NewRequest(http.MethodDelete, "http://"+addr+"/admin/policy?id=pol-res-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(del)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE /admin/policy: %v (status %v)", err, resp)
	}
	resp.Body.Close()

	probes := []struct{ res, action string }{
		{"res-0", "read"}, {"res-0", "write"},
		{"res-1", "read"}, // deleted: must stay not-applicable after recovery
		{"res-2", "read"},
		{"res-9", "read"}, {"res-9", "write"}, // administered live
	}
	want := decideAll(t, addr, probes)
	if want[0] != policy.DecisionPermit {
		t.Fatalf("res-0 read = %v before crash, want permit", want[0])
	}
	if want[4] != policy.DecisionPermit {
		t.Fatalf("res-9 read = %v before crash, want permit (live write lost?)", want[4])
	}

	// kill -9: no shutdown hook runs; durability must come from the WAL.
	if err := daemon.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = daemon.Wait()

	daemon = start()
	got := decideAll(t, addr, probes)
	for i, p := range probes {
		if got[i] != want[i] {
			t.Fatalf("%s %s after kill -9 + restart = %v, want %v", p.res, p.action, got[i], want[i])
		}
	}
	var stats struct {
		Policies    int `json:"policies"`
		Persistence *struct {
			LastSeq           uint64 `json:"LastSeq"`
			RecoveredSnapshot int    `json:"RecoveredSnapshot"`
			RecoveredTail     int    `json:"RecoveredTail"`
		} `json:"persistence"`
	}
	resp, err = http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Policies != 3 { // res-0, res-2, res-9; res-1 deleted
		t.Fatalf("policies after recovery = %d, want 3", stats.Policies)
	}
	if stats.Persistence == nil || stats.Persistence.RecoveredSnapshot+stats.Persistence.RecoveredTail == 0 {
		t.Fatalf("persistence counters show no recovery: %+v", stats.Persistence)
	}

	// Graceful shutdown: SIGTERM must flush and exit zero.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
}

// buildDaemon compiles pdpd into dir, skipping the calling test in -short
// mode.
func buildDaemon(t *testing.T, dir string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and spawns the real daemon")
	}
	bin := filepath.Join(dir, "pdpd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitHealthy(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("pdpd on %s never became healthy", addr)
}

func decideAll(t *testing.T, addr string, probes []struct{ res, action string }) []policy.Decision {
	t.Helper()
	client := pdp.NewClient("http://"+addr+"/decide", "smoke-test", "pdpd")
	out := make([]policy.Decision, len(probes))
	for i, p := range probes {
		res := policy.Decide(context.Background(), client, policy.NewAccessRequest("u", p.res, p.action), time.Time{})
		if res.Err != nil && res.Decision != policy.DecisionNotApplicable {
			t.Fatalf("decide %s %s: %v", p.res, p.action, res.Err)
		}
		out[i] = res.Decision
	}
	return out
}
