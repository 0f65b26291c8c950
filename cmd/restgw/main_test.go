package main

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dialect"
	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/wire"
)

// clinicACL permits doctors everything and nurses reads with the ssn and
// insurance-id fields redacted; everyone else is denied.
const clinicACL = `
policy records first-applicable {
  target resource.resource-type == "patient-record"
  permit doctors when subject.role has "doctor"
  permit nurses-redacted when subject.role has "nurse" and action.action-id == "read" {
    obligate redact on permit { fields = "ssn,insurance-id" }
  }
  deny default
}
`

const recordsRoute = "/records/{id}=patient-record"

// TestGatewayEndToEnd builds the real restgw binary and drives it in front
// of a stub upstream, deciding first against a local .acl policy and then
// against a remote PDP endpoint: Permit, Deny, redaction, 404 and 401 at
// the edge, the repro_rest_* families on /metrics, the /gw/stats counts,
// fail-closed on a dead PDP and a clean exit on SIGTERM.
func TestGatewayEndToEnd(t *testing.T) {
	bin := buildGateway(t, t.TempDir())
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"id":"rec-7","diagnosis":"stable","ssn":"123-45-6789","insurance-id":"I-9"}`)
	}))
	defer upstream.Close()

	t.Run("local-acl", func(t *testing.T) {
		policyPath := filepath.Join(t.TempDir(), "clinic.acl")
		if err := os.WriteFile(policyPath, []byte(clinicACL), 0o644); err != nil {
			t.Fatal(err)
		}
		gw := startGateway(t, bin, "-upstream", upstream.URL, "-policy", policyPath, "-route", recordsRoute)
		checkEnforcement(t, gw)
		gw.checkStats(t, "requests=5 permitted=2 denied=3 unrouted=1 unauthenticated=1 transformed=1")
		gw.stop(t)
	})

	t.Run("remote-pdp", func(t *testing.T) {
		root, err := dialect.Translate("clinic", policy.DenyOverrides, clinicACL)
		if err != nil {
			t.Fatal(err)
		}
		engine := pdp.New("clinic-pdp")
		if err := engine.SetRoot(root); err != nil {
			t.Fatal(err)
		}
		pdpSrv := httptest.NewServer(wire.HTTPHandler(pdp.Handler(engine)))
		defer pdpSrv.Close()
		gw := startGateway(t, bin, "-upstream", upstream.URL, "-pdp", pdpSrv.URL+"/decide", "-route", recordsRoute)
		checkEnforcement(t, gw)

		// Lose the PDP: the gateway must fail closed, not open.
		pdpSrv.Close()
		if code, body := gw.get(t, "/records/rec-7", "alice", "doctor"); code != http.StatusForbidden {
			t.Errorf("doctor with the PDP closed: %d %s, want 403", code, body)
		}
		gw.checkStats(t, "requests=6 permitted=2 denied=4 unrouted=1 unauthenticated=1 transformed=1")
		gw.stop(t)
	})
}

// checkEnforcement sends the five edge cases to a fresh gateway and checks
// each answer, then the repro_rest_* exposition they leave behind.
func checkEnforcement(t *testing.T, gw *gateway) {
	t.Helper()
	if code, body := gw.get(t, "/records/rec-7", "alice", "doctor"); code != http.StatusOK || !strings.Contains(body, "ssn") {
		t.Errorf("doctor: %d %s, want 200 with the full record", code, body)
	}
	code, body := gw.get(t, "/records/rec-7", "nina", "nurse")
	if code != http.StatusOK || !strings.Contains(body, "diagnosis") {
		t.Errorf("nurse: %d %s, want 200 with the diagnosis", code, body)
	}
	if strings.Contains(body, "ssn") || strings.Contains(body, "insurance-id") {
		t.Errorf("nurse: body not redacted: %s", body)
	}
	if code, body := gw.get(t, "/records/rec-7", "mallory", "visitor"); code != http.StatusForbidden {
		t.Errorf("visitor: %d %s, want 403", code, body)
	}
	if code, body := gw.get(t, "/admin/users", "alice", "doctor"); code != http.StatusNotFound {
		t.Errorf("unrouted path: %d %s, want 404", code, body)
	}
	if code, body := gw.get(t, "/records/rec-7", "", ""); code != http.StatusUnauthorized {
		t.Errorf("no X-Subject: %d %s, want 401", code, body)
	}

	_, metrics := gw.get(t, "/metrics", "", "")
	for _, line := range []string{
		"# TYPE repro_rest_requests_total counter",
		"# TYPE repro_rest_outcomes_total counter",
		"# TYPE repro_rest_transformed_total counter",
		"repro_rest_requests_total 5",
		`repro_rest_outcomes_total{outcome="permitted"} 2`,
		"repro_rest_transformed_total 1",
	} {
		if !strings.Contains(metrics, "\n"+line+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", line, metrics)
		}
	}
}

// gateway is one spawned restgw process.
type gateway struct {
	addr string
	cmd  *exec.Cmd
	out  strings.Builder
	done chan struct{} // closed once the process has exited
	err  error         // the exit status, set before done closes
}

// buildGateway compiles restgw into dir, skipping the calling test in
// -short mode.
func buildGateway(t *testing.T, dir string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and spawns the real gateway")
	}
	bin := filepath.Join(dir, "restgw")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startGateway spawns restgw on a free port and waits until it serves.
func startGateway(t *testing.T, bin string, args ...string) *gateway {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gw := &gateway{addr: ln.Addr().String(), done: make(chan struct{})}
	ln.Close()
	gw.cmd = exec.Command(bin, append([]string{"-addr", gw.addr}, args...)...)
	gw.cmd.Stdout, gw.cmd.Stderr = &gw.out, &gw.out
	if err := gw.cmd.Start(); err != nil {
		t.Fatalf("start restgw: %v", err)
	}
	go func() { gw.err = gw.cmd.Wait(); close(gw.done) }()
	t.Cleanup(func() {
		_ = gw.cmd.Process.Kill()
		<-gw.done
		if t.Failed() {
			t.Logf("restgw output:\n%s", gw.out.String())
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-gw.done:
			t.Fatalf("restgw exited before serving: %v\n%s", gw.err, gw.out.String())
		default:
		}
		if resp, err := http.Get("http://" + gw.addr + "/gw/stats"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return gw
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("restgw on %s never served", gw.addr)
	return nil
}

// get sends one GET, with the subject headers when subject is non-empty.
func (gw *gateway) get(t *testing.T, path, subject, roles string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://"+gw.addr+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if subject != "" {
		req.Header.Set("X-Subject", subject)
		req.Header.Set("X-Roles", roles)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func (gw *gateway) checkStats(t *testing.T, want string) {
	t.Helper()
	if _, got := gw.get(t, "/gw/stats", "", ""); strings.TrimSpace(got) != want {
		t.Errorf("/gw/stats = %q, want %q", strings.TrimSpace(got), want)
	}
}

// stop sends SIGTERM and requires a clean exit.
func (gw *gateway) stop(t *testing.T) {
	t.Helper()
	if err := gw.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gw.done:
		if gw.err != nil {
			t.Errorf("restgw after SIGTERM: %v, want exit 0", gw.err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("restgw did not exit within 15 s of SIGTERM")
	}
}
