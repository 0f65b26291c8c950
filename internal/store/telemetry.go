package store

import "repro/internal/telemetry"

// RegisterMetrics exposes the log's persistence counters on reg. The
// collectors read Stats() at scrape time only, so registration adds no
// cost to the append path.
func (l *Log) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("repro_store_wal_appends_total",
		"Policy updates made durable in the write-ahead log.",
		func() int64 { return int64(l.Stats().Appends) })
	reg.CounterFunc("repro_store_wal_fsyncs_total",
		"WAL fsyncs issued (one per Append call, however many updates it carries).",
		func() int64 { return int64(l.Stats().Fsyncs) })
	reg.CounterFunc("repro_store_snapshots_total",
		"Snapshot/compact cycles completed.",
		func() int64 { return int64(l.Stats().Snapshots) })
	reg.CounterFunc("repro_store_snapshot_failures_total",
		"Snapshot attempts that failed (the WAL keeps the data safe regardless).",
		func() int64 { return int64(l.Stats().SnapshotFailures) })
	reg.GaugeFunc("repro_store_wal_last_seq",
		"Sequence number of the newest durable record.",
		func() int64 { return int64(l.Stats().LastSeq) })
}
