package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/xacml"
)

// writePolicy marshals the evaluable to XML in dir and returns its path.
func writePolicy(t *testing.T, dir, name string, ev policy.Evaluable) string {
	t.Helper()
	data, err := xacml.MarshalXML(ev)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func cleanPolicy(t *testing.T, dir string) string {
	return writePolicy(t, dir, "clean.xml", policy.NewPolicy("clean").
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID("lab-result")).
		Rule(policy.Permit("read").When(policy.MatchActionID("read")).Build()).
		Build())
}

// conflictingPair writes two files whose policies hold an actual
// cross-owner modality conflict on res-0.
func conflictingPair(t *testing.T, dir string) (string, string) {
	permits := writePolicy(t, dir, "permits.xml", policy.NewPolicy("a-permit").
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID("res-0")).
		Rule(policy.Permit("open").Build()).
		Build())
	denies := writePolicy(t, dir, "denies.xml", policy.NewPolicy("b-deny").
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID("res-0")).
		Rule(policy.Deny("shut").Build()).
		Build())
	return permits, denies
}

// TestLintExitCodes pins the CI contract: 0 clean, 1 findings, 2 when a
// file cannot be loaded or a flag is bad.
func TestLintExitCodes(t *testing.T) {
	dir := t.TempDir()
	clean := cleanPolicy(t, dir)
	permits, denies := conflictingPair(t, dir)

	t.Run("clean-base-exits-0", func(t *testing.T) {
		var out, errw bytes.Buffer
		if code := run([]string{"lint", clean}, &out, &errw); code != 0 {
			t.Fatalf("exit %d, stderr %q", code, errw.String())
		}
		if !strings.Contains(out.String(), "clean") {
			t.Fatalf("report %q does not say clean", out.String())
		}
	})

	t.Run("findings-exit-1", func(t *testing.T) {
		var out, errw bytes.Buffer
		if code := run([]string{"lint", permits, denies}, &out, &errw); code != 1 {
			t.Fatalf("exit %d, want 1; out %q", code, out.String())
		}
		if !strings.Contains(out.String(), "conflict") {
			t.Fatalf("report %q does not mention the conflict", out.String())
		}
	})

	t.Run("json-report-parses", func(t *testing.T) {
		var out, errw bytes.Buffer
		if code := run([]string{"lint", "-json", permits, denies}, &out, &errw); code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
		var rep struct {
			Findings []struct {
				Kind     string `json:"kind"`
				Severity string `json:"severity"`
			} `json:"findings"`
		}
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("output is not JSON: %v\n%s", err, out.String())
		}
		if len(rep.Findings) == 0 || rep.Findings[0].Kind != "conflict" || rep.Findings[0].Severity != "error" {
			t.Fatalf("findings = %+v, want a leading conflict error", rep.Findings)
		}
	})

	t.Run("missing-file-exits-2", func(t *testing.T) {
		var out, errw bytes.Buffer
		if code := run([]string{"lint", filepath.Join(dir, "ghost.xml")}, &out, &errw); code != 2 {
			t.Fatalf("exit %d, want 2", code)
		}
	})

	t.Run("bad-flag-exits-2", func(t *testing.T) {
		var out, errw bytes.Buffer
		if code := run([]string{"lint", "-root-combining=bogus", clean}, &out, &errw); code != 2 {
			t.Fatalf("exit %d, want 2", code)
		}
	})

	t.Run("no-args-exits-2", func(t *testing.T) {
		var out, errw bytes.Buffer
		if code := run([]string{"lint"}, &out, &errw); code != 2 {
			t.Fatalf("exit %d, want 2", code)
		}
	})
}

// TestConflictsExitCodes pins conflicts as an alias of lint: lint's exit
// codes and report, policy-set targets included — two sets on disjoint
// resources, one permitting and one denying read, cannot clash.
func TestConflictsExitCodes(t *testing.T) {
	dir := t.TempDir()
	clean := cleanPolicy(t, dir)
	permits, denies := conflictingPair(t, dir)
	set := func(id, res string, rule *policy.Rule) string {
		return writePolicy(t, dir, id+".xml", policy.NewPolicySet(id).
			Combining(policy.DenyOverrides).
			When(policy.MatchResourceID(res)).
			Add(policy.NewPolicy(id+"-p").Combining(policy.FirstApplicable).Rule(rule).Build()).
			Build())
	}
	sx := set("sx", "x", policy.Permit("open").When(policy.MatchActionID("read")).Build())
	sy := set("sy", "y", policy.Deny("shut").When(policy.MatchActionID("read")).Build())

	for _, tc := range []struct {
		name  string
		files []string
		want  int
		says  string
	}{
		{"clean-base", []string{clean}, 0, "clean"},
		{"conflicting-pair", []string{permits, denies}, 1, "conflict"},
		{"disjoint-set-targets", []string{sx, sy}, 0, "clean"},
		{"missing-file", []string{filepath.Join(dir, "ghost.xml")}, 2, ""},
	} {
		var out, errw bytes.Buffer
		if code := run(append([]string{"conflicts"}, tc.files...), &out, &errw); code != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.want, out.String(), errw.String())
		}
		if !strings.Contains(out.String(), tc.says) {
			t.Errorf("%s: report %q does not say %q", tc.name, out.String(), tc.says)
		}
	}
}

func TestUnknownSubcommandExits2(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"frobnicate"}, &out, &errw); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if code := run(nil, &out, &errw); code != 2 {
		t.Fatalf("no-args exit %d, want 2", code)
	}
}

// TestExamplePoliciesStayClean keeps the committed examples honest: CI
// lints them expecting exit 0, so catch drift here too.
func TestExamplePoliciesStayClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "policies", "*.xml"))
	if err != nil || len(paths) == 0 {
		t.Skipf("no example policies found: %v", err)
	}
	var out, errw bytes.Buffer
	if code := run(append([]string{"lint"}, paths...), &out, &errw); code != 0 {
		t.Fatalf("examples lint exit %d\n%s%s", code, out.String(), errw.String())
	}
}
