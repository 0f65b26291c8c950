package main

import (
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/policy"
	"repro/internal/xacml"
)

// TestDaemonStatsBenchKeys pins the /stats keys the load harness in
// bench/ reads: it starts the real pdpd binary with -cache 1m, decides
// one request twice, and decodes /stats into the harness's own field
// shape (bench/daemon.go's scrape). The first decision is an engine
// evaluation and the second a front-cache hit, so point.Engines must
// report at least one of each.
func TestDaemonStatsBenchKeys(t *testing.T) {
	workDir := t.TempDir()
	bin := buildDaemon(t, workDir)
	seedDoc, err := xacml.MarshalJSON(testBase(3))
	if err != nil {
		t.Fatal(err)
	}
	seedPath := filepath.Join(workDir, "seed.json")
	if err := os.WriteFile(seedPath, seedDoc, 0o644); err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)
	daemon := exec.Command(bin, "-policy", seedPath, "-addr", addr, "-cache", "1m")
	daemon.Stdout, daemon.Stderr = os.Stderr, os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatalf("start pdpd: %v", err)
	}
	defer func() {
		_ = daemon.Process.Kill()
		_ = daemon.Wait()
	}()
	waitHealthy(t, addr)

	probes := []struct{ res, action string }{{"res-0", "read"}, {"res-0", "read"}}
	for i, got := range decideAll(t, addr, probes) {
		if got != policy.DecisionPermit {
			t.Fatalf("decision %d = %v, want permit", i, got)
		}
	}

	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Point struct {
			Cluster struct{ Requests, BatchRequests float64 }
			Engines struct {
				Evaluations, CacheHits, InterpretedEvaluations float64
				RootChildren, CompiledChildren                 float64
			}
		} `json:"point"`
		RefreshErrors float64 `json:"refresh_errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	eng := stats.Point.Engines
	if eng.CacheHits < 1 || eng.Evaluations < 1 {
		t.Fatalf("point.Engines = %+v, want CacheHits >= 1 and Evaluations >= 1", eng)
	}
	if eng.RootChildren != 3 || eng.CompiledChildren != 3 || eng.InterpretedEvaluations != 0 {
		t.Fatalf("point.Engines = %+v, want 3 root children, all compiled, none interpreted", eng)
	}
	if stats.Point.Cluster.Requests < 1 || stats.RefreshErrors != 0 {
		t.Fatalf("/stats = %+v, want routed requests and no refresh errors", stats)
	}
}
