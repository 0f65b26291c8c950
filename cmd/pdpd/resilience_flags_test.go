package main

import (
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xacml"
)

// TestDaemonBreakerAndStaleFlagsArmSeparately starts the real pdpd binary
// once per resilience flag and reads /metrics: -stale-grace alone places
// the FrontCache and arms no shard breaker, and -breaker alone arms one
// breaker per shard and places no FrontCache.
func TestDaemonBreakerAndStaleFlagsArmSeparately(t *testing.T) {
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

	for _, tc := range []struct {
		flag          string
		breakerSeries int
		stale         bool
	}{
		{flag: "-stale-grace=30s", breakerSeries: 0, stale: true},
		{flag: "-breaker", breakerSeries: 2, stale: false},
	} {
		t.Run(strings.TrimPrefix(tc.flag, "-"), func(t *testing.T) {
			addr := freeAddr(t)
			cmd := exec.Command(bin, "-policy", seedPath, "-addr", addr, "-shards", "2", tc.flag)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			if err := cmd.Start(); err != nil {
				t.Fatalf("start pdpd: %v", err)
			}
			defer func() {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}()
			waitHealthy(t, addr)

			resp, err := http.Get("http://" + addr + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			breakers := 0
			for _, line := range strings.Split(string(body), "\n") {
				if strings.HasPrefix(line, "repro_cluster_breaker_state{") {
					breakers++
				}
			}
			if breakers != tc.breakerSeries {
				t.Errorf("%s: %d repro_cluster_breaker_state series, want %d", tc.flag, breakers, tc.breakerSeries)
			}
			if got := strings.Contains(string(body), "repro_stale_served_total"); got != tc.stale {
				t.Errorf("%s: repro_stale_served_total on /metrics = %v, want %v", tc.flag, got, tc.stale)
			}
		})
	}
}
