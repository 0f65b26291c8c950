package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one spawned pdpd: the deployment under test, the same for
// every workload.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	log    *os.File
	exited chan struct{} // closed once cmd.Wait has returned
}

// live tracks the spawned daemons that have not been stopped, so that an
// interrupted benchmark still leaves no process behind.
var live = struct {
	sync.Mutex
	daemons map[*daemon]struct{}
}{daemons: map[*daemon]struct{}{}}

// killLiveOnSignal stops every live daemon and exits when the benchmark is
// interrupted or terminated.
func killLiveOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		live.Lock()
		for d := range live.daemons {
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		os.Exit(130)
	}()
}

// daemonArgs is the deployment under test. It names no flag an open
// ROADMAP item proposes to delete (no -index), so the benchmark survives
// those changes unedited.
func daemonArgs(policyPath, subjectsPath, addr, dataDir string, traceSample float64) []string {
	return []string{
		"-policy", policyPath, "-subjects", subjectsPath,
		"-addr", addr, "-data-dir", dataDir,
		"-shards", "2", "-replicas", "2", "-strategy", "failover",
		"-cache", "5m", "-breaker", "-stale-grace", "30s", "-admission", "256",
		"-trace-sample", strconv.FormatFloat(traceSample, 'g', -1, 64),
	}
}

// freeAddr reserves a loopback port for the daemon.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts pdpd with a fresh data directory under dir and waits until
// /healthz answers: by then the whole seed base has gone through
// pap.Store, one WAL fsync per policy.
func spawn(bin, dir, policyPath, subjectsPath string, traceSample float64) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(dir, "data")
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(dir, "pdpd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, daemonArgs(policyPath, subjectsPath, addr, dataDir, traceSample)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, addr: addr, log: logFile, exited: make(chan struct{})}
	live.Lock()
	live.daemons[d] = struct{}{}
	live.Unlock()
	go func() { _ = cmd.Wait(); close(d.exited) }()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			d.stop()
			tail, _ := os.ReadFile(logFile.Name())
			return nil, fmt.Errorf("pdpd exited during start-up: %s", bytes.TrimSpace(tail))
		default:
		}
		if resp, err := client.Get(d.url("/healthz")); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("pdpd on %s never became healthy", addr)
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// stop ends the daemon and returns once it has exited. SIGKILL, not a
// graceful drain: the data directory is thrown away with it, and the
// benchmark must never leave a process behind.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill()
	<-d.exited
	d.log.Close()
	live.Lock()
	delete(live.daemons, d)
	live.Unlock()
}

// cpuSeconds reads the daemon's consumed CPU (utime+stime) from
// /proc/<pid>/stat.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat line")
	}
	const clockTicksPerSecond = 100 // USER_HZ, fixed on Linux
	return (utime + stime) / clockTicksPerSecond, nil
}

// peakRSSMB reads the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// counts is one scrape of the daemon's boundary counters, taken
// immediately before and after a timed window and never inside it.
type counts struct {
	evaluations, cacheHits, interpreted float64 // /stats point.Engines
	rootChildren, compiledChildren      float64 // /stats point.Engines, gauges summed over the four engines
	routed, batchRouted                 float64 // /stats point.Cluster
	pipHits, pipMisses, pipCoalesced    float64 // /metrics repro_pip_cache_*
	walAppends, walFsyncs               float64 // /metrics repro_store_wal_*
	admissionRejected                   float64 // /metrics repro_admission_rejected_total
	gateChecks                          float64 // /metrics repro_analysis_gate_checks_total
	refreshErrors                       float64 // /stats refresh_errors
}

func (d *daemon) get(path string) ([]byte, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(d.url(path))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrape reads /stats and /metrics.
func (d *daemon) scrape() (counts, error) {
	var c counts
	raw, err := d.get("/stats")
	if err != nil {
		return c, err
	}
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
	if err := json.Unmarshal(raw, &stats); err != nil {
		return c, fmt.Errorf("/stats: %w", err)
	}
	c.evaluations = stats.Point.Engines.Evaluations
	c.cacheHits = stats.Point.Engines.CacheHits
	c.interpreted = stats.Point.Engines.InterpretedEvaluations
	c.rootChildren = stats.Point.Engines.RootChildren
	c.compiledChildren = stats.Point.Engines.CompiledChildren
	c.routed = stats.Point.Cluster.Requests
	c.batchRouted = stats.Point.Cluster.BatchRequests
	c.refreshErrors = stats.RefreshErrors

	raw, err = d.get("/metrics")
	if err != nil {
		return c, err
	}
	for name, into := range map[string]*float64{
		"repro_pip_cache_hits_total":       &c.pipHits,
		"repro_pip_cache_misses_total":     &c.pipMisses,
		"repro_pip_cache_coalesced_total":  &c.pipCoalesced,
		"repro_store_wal_appends_total":    &c.walAppends,
		"repro_store_wal_fsyncs_total":     &c.walFsyncs,
		"repro_admission_rejected_total":   &c.admissionRejected,
		"repro_analysis_gate_checks_total": &c.gateChecks,
	} {
		v, ok := metricValue(raw, name)
		if !ok {
			return c, fmt.Errorf("/metrics: no %s", name)
		}
		*into = v
	}
	return c, nil
}

// metricValue sums every series of one metric in a text exposition.
func metricValue(exposition []byte, name string) (float64, bool) {
	var total float64
	found := false
	for _, line := range strings.Split(string(exposition), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(rest)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		total += v
		found = true
	}
	return total, found
}
