package store

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

// TestStoreFamiliesGolden pins the repro_store_* families a log exposes:
// exactly these five, each with its kind and help text, reading the log's
// Stats at scrape time.
func TestStoreFamiliesGolden(t *testing.T) {
	golden := map[string]string{
		"repro_store_snapshot_failures_total": "counter Snapshot attempts that failed (the WAL keeps the data safe regardless).",
		"repro_store_snapshots_total":         "counter Snapshot/compact cycles completed.",
		"repro_store_wal_appends_total":       "counter Policy updates made durable in the write-ahead log.",
		"repro_store_wal_fsyncs_total":        "counter WAL fsyncs issued (one per Append call, however many updates it carries).",
		"repro_store_wal_last_seq":            "gauge Sequence number of the newest durable record.",
	}
	l := mustOpen(t, t.TempDir(), Options{SnapshotEvery: 3})
	defer l.Close()
	reg := telemetry.NewRegistry()
	l.RegisterMetrics(reg)
	if err := l.Append(putUpdate("p-a", "res-a", "v", 1), putUpdate("p-b", "res-b", "v", 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(putUpdate("p-a", "res-a", "v2", 2)); err != nil {
		t.Fatal(err)
	}
	out := reg.Render()

	telemetrytest.CheckFamilies(t, out, "repro_store_", golden)
	for _, series := range []string{
		"repro_store_wal_appends_total 3",
		"repro_store_wal_fsyncs_total 2",
		"repro_store_snapshots_total 1",
		"repro_store_snapshot_failures_total 0",
		"repro_store_wal_last_seq 3",
	} {
		if !strings.Contains(out, "\n"+series+"\n") {
			t.Errorf("exposition missing %s:\n%s", series, out)
		}
	}
}
