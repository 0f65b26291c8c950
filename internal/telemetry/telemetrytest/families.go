// Package telemetrytest holds the check that golden tests of metric
// families share.
package telemetrytest

import (
	"strings"
	"testing"
)

// CheckFamilies asserts that the exposition out carries exactly the
// golden families under prefix, each with its "kind help" text.
func CheckFamilies(t testing.TB, out, prefix string, golden map[string]string) {
	t.Helper()
	help := make(map[string]string)
	kind := make(map[string]string)
	for _, line := range strings.Split(out, "\n") {
		var into map[string]string
		switch {
		case strings.HasPrefix(line, "# HELP "):
			into = help
		case strings.HasPrefix(line, "# TYPE "):
			into = kind
		default:
			continue
		}
		if name, text, _ := strings.Cut(line[len("# HELP "):], " "); strings.HasPrefix(name, prefix) {
			into[name] = text
		}
	}
	if len(help) != len(golden) {
		t.Errorf("exposes %d %s* families, want %d", len(help), prefix, len(golden))
	}
	for name, want := range golden {
		if got := kind[name] + " " + help[name]; got != want {
			t.Errorf("%s: got %q, want %q", name, got, want)
		}
	}
	for name := range help {
		if _, ok := golden[name]; !ok {
			t.Errorf("unexpected family %s", name)
		}
	}
}
