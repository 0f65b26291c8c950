package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			table, err := exp.Run()
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if table == nil || len(table.Rows()) == 0 {
				t.Fatalf("%s: empty table", exp.ID)
			}
			if table.Title == "" {
				t.Errorf("%s: table has no title", exp.ID)
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registry has %d experiments, want 15", len(all))
	}
	for i, exp := range all {
		want := i + 1
		if want >= 13 {
			want++ // E13 (the target-index ablation) is retired; IDs are not reused
		}
		var got int
		if _, err := fmtSscanf(exp.ID, &got); err != nil || got != want {
			t.Errorf("experiment %d has ID %s, want E%d", i, exp.ID, want)
		}
	}
	if _, ok := ByID("E9"); !ok {
		t.Error("ByID(E9) missed")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) found a ghost")
	}
}

func fmtSscanf(id string, n *int) (int, error) {
	if !strings.HasPrefix(id, "E") {
		return 0, errNotID
	}
	var err error
	*n, err = atoi(id[1:])
	return 1, err
}

var errNotID = errorConst("not an experiment id")

type errorConst string

func (e errorConst) Error() string { return string(e) }

func atoi(s string) (int, error) {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, errNotID
		}
		n = n*10 + int(r-'0')
	}
	return n, nil
}

// Shape assertions: the headline results must hold, not just run.

// TestE1Shape pins E1's deterministic table: every VO size costs 4
// messages and 20ms (p50) for a home-domain request and 6 messages and
// 30ms for a cross-domain one, and permits every doctor's read. It also
// pins the nearest-rank percentile rule, idx = ⌈p/100·n⌉−1, behind the
// p50 columns.
func TestE1Shape(t *testing.T) {
	table, err := RunE1VirtualOrganisation()
	if err != nil {
		t.Fatal(err)
	}
	rows := table.Rows()
	domains := []string{"2", "4", "8", "16", "32"}
	if len(rows) != len(domains) {
		t.Fatalf("E1 has %d rows, want %d", len(rows), len(domains))
	}
	for i, row := range rows {
		want := []string{domains[i], "200", "4.00", "6.00", "20ms", "30ms", "1.00"}
		if strings.Join(row, "|") != strings.Join(want, "|") {
			t.Errorf("E1 row %d = %q, want %q", i, row, want)
		}
	}

	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{
		{1, time.Millisecond},
		{50, 50 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{99.5, 100 * time.Millisecond},
		{100, 100 * time.Millisecond},
	} {
		if got := metrics.Percentile(ds, c.p); got != c.want {
			t.Errorf("p%v of 1..100ms = %v, want %v", c.p, got, c.want)
		}
	}
	if got := metrics.Percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %v, want 0", got)
	}
}

func TestE3CrossoverShape(t *testing.T) {
	table, err := RunE3PullVsPush()
	if err != nil {
		t.Fatal(err)
	}
	rows := table.Rows()
	// At k=1 pull must beat push (issuance overhead); by k=20 push must
	// win (amortisation) — the Fig. 2/3 trade-off.
	first, last := rows[0], rows[len(rows)-1]
	if w := first[len(first)-1]; w == "push" {
		t.Errorf("k=1 winner = %s, pull must not lose before any reuse", w)
	}
	if last[len(last)-1] != "push" {
		t.Errorf("k=20 winner = %s, want push", last[len(last)-1])
	}
}

func TestE9ReplicationImprovesAvailability(t *testing.T) {
	table, err := RunE9DependablePDP()
	if err != nil {
		t.Fatal(err)
	}
	rows := table.Rows()
	// Row 0 is single@10%, row 2 is failover-3@10%: availability must
	// strictly improve.
	single := rows[0][2]
	failover3 := rows[2][2]
	if !(failover3 > single) { // "100.0%" > "90.x%" lexically holds only if... compare numerically
		var s, f float64
		if _, err := sscanPercent(single, &s); err != nil {
			t.Fatal(err)
		}
		if _, err := sscanPercent(failover3, &f); err != nil {
			t.Fatal(err)
		}
		if f <= s {
			t.Errorf("failover-3 availability %v <= single %v", f, s)
		}
	}
}

func sscanPercent(s string, out *float64) (int, error) {
	var v float64
	var err error
	s = strings.TrimSuffix(s, "%")
	v, err = parseFloat(s)
	*out = v
	return 1, err
}

func parseFloat(s string) (float64, error) {
	var v float64
	var frac float64 = 1
	seenDot := false
	for _, r := range s {
		switch {
		case r == '.':
			seenDot = true
		case r >= '0' && r <= '9':
			if seenDot {
				frac /= 10
				v += float64(r-'0') * frac
			} else {
				v = v*10 + float64(r-'0')
			}
		default:
			return 0, errNotID
		}
	}
	return v, nil
}

func TestE7CachingReducesTraffic(t *testing.T) {
	table, err := RunE7Caching()
	if err != nil {
		t.Fatal(err)
	}
	rows := table.Rows()
	// With the 60s TTL the reduction factor must exceed the no-cache
	// baseline (1.00) substantially, and stale permits must appear.
	baseline, longTTL := rows[0], rows[len(rows)-1]
	if baseline[3] != "1.00" {
		t.Errorf("no-cache reduction = %s, want 1.00", baseline[3])
	}
	red, err := parseFloat(longTTL[3])
	if err != nil || red < 1.5 {
		t.Errorf("60s TTL reduction = %s, want >= 1.5x", longTTL[3])
	}
	if longTTL[5] == "0" {
		t.Error("60s TTL must show stale permits after revocation")
	}
	if baseline[5] != "0" {
		t.Error("no-cache run must show zero stale permits")
	}
}
