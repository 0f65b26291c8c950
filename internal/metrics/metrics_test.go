package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("E1: example", "domains", "latency", "rate")
	tbl.AddRow(2, 40*time.Millisecond, 0.5)
	tbl.AddRow(32, 120*time.Millisecond, 0.98765)
	out := tbl.String()
	for _, want := range []string{"E1: example", "domains", "40ms", "0.99", "32"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if len(tbl.Rows()) != 2 {
		t.Errorf("Rows = %d", len(tbl.Rows()))
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}
