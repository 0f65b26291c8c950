package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/workload"
	"repro/internal/xacml"
)

// spawnDaemon writes the load shape's policy base into workDir and starts
// the real pdpd over it, with a WAL in workDir/data and /admin/chaos
// exposed — the same artifacts an operator would deploy.
func spawnDaemon(ctx context.Context, bin, workDir string, resilience bool, log io.Writer) (*daemon, error) {
	seed, err := xacml.MarshalJSON(workload.NewGenerator(loadShape).PolicyBase("loadd-root"))
	if err != nil {
		return nil, err
	}
	seedPath := filepath.Join(workDir, "seed.json")
	if err := os.WriteFile(seedPath, seed, 0o644); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-policy", seedPath,
		"-addr", addr,
		"-data-dir", filepath.Join(workDir, "data"),
		"-shards", fmt.Sprint(shards),
		"-replicas", fmt.Sprint(replicas),
		"-chaos",
	}
	// The brownout run drops -cache: a fresh hit answers a warm key before
	// the stale path can, so no partition would ever be served stale.
	if resilience {
		args = append(args, "-breaker", "-breaker-cooldown", breakerCooldown.String(),
			"-stale-grace", staleGrace.String())
	} else {
		args = append(args, "-cache", "30s")
	}
	proc := &daemon{bin: bin, args: args, addr: addr, log: log}
	if err := proc.Start(ctx); err != nil {
		return nil, err
	}
	return proc, nil
}

// daemon is a spawned pdpd under the harness's control: it implements
// chaos.Process, so the kill-9/WAL-recovery event is a real SIGKILL of a
// real process, not a simulation.
type daemon struct {
	bin  string
	args []string
	addr string
	log  io.Writer
	cmd  *exec.Cmd
}

// Start launches the daemon and blocks until /healthz answers.
func (d *daemon) Start(ctx context.Context) error {
	cmd := exec.Command(d.bin, d.args...)
	cmd.Stdout, cmd.Stderr = d.log, d.log
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", d.bin, err)
	}
	d.cmd = cmd
	if err := waitHealthy(ctx, d.addr, 20*time.Second); err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return err
	}
	return nil
}

// Kill implements chaos.Process: SIGKILL, no shutdown hook runs — whatever
// survives must come out of the WAL on Restart.
func (d *daemon) Kill() error {
	if d.cmd == nil || d.cmd.Process == nil {
		return fmt.Errorf("daemon not running")
	}
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		return err
	}
	_ = d.cmd.Wait() // reap; exit status is the signal, not an error here
	d.cmd = nil
	return nil
}

// Restart implements chaos.Process: relaunch on the same address and data
// directory and wait until it serves again.
func (d *daemon) Restart(ctx context.Context) error {
	if d.cmd != nil {
		return fmt.Errorf("daemon already running")
	}
	return d.Start(ctx)
}

// Stop shuts the daemon down at the end of the run: SIGTERM for the
// graceful path, SIGKILL if it lingers.
func (d *daemon) Stop() {
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.cmd = nil
}

// freeAddr reserves a loopback port for the spawned daemon.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// scrapeCounter fetches a /metrics exposition and sums every series of the
// named metric (label variants included), rounding to a whole count. Used
// to prove degraded mode engaged on the daemon side.
func scrapeCounter(ctx context.Context, url, name string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return 0, err
	}
	var total float64
	found := false
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // a different metric sharing the prefix
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		total += v
		found = true
	}
	if !found {
		return 0, fmt.Errorf("metric %s not found at %s", name, url)
	}
	return int64(math.Round(total)), nil
}

// waitHealthy polls /healthz until it answers 200 or the timeout expires.
func waitHealthy(ctx context.Context, addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) && ctx.Err() == nil {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return fmt.Errorf("pdpd on %s never became healthy", addr)
}
