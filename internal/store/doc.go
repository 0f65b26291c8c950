// Package store is the durable persistence layer beneath the Policy
// Administration Point: a write-ahead log plus periodic snapshots, giving
// the authoritative policy base crash durability, fast restart, and a
// replication-bootstrap source — the dependability property the paper's
// architecture assumes of the PAP (Section 3.3) and the in-memory
// pap.Store alone cannot provide.
//
// # Write-ahead log
//
// Every record is one pap.Update — the same self-contained delta the
// PAP→PDP refresh pipeline propagates — serialised as versioned JSON
// (MarshalUpdate) and framed with a magic byte, a length and a CRC-32C so
// torn and corrupt tail records are detectable. The Log is attached to a
// pap.Store as its Backend: the store commits each write to the log
// before the write becomes visible in memory or to any watcher, in
// commit order.
//
// # Durability contract (group commit)
//
// Append returns only after its records — and everything queued before
// them — have been written and fsynced. Concurrent appends are absorbed
// into one batch per fsync (group commit), so the fsync cost amortises
// across appenders without weakening the contract: an acknowledged write
// is on disk, full stop. Note that one pap.Store serialises its writers
// (the commit-order guarantee), so a single store's writes run at the
// one-fsync-per-write floor; batching engages for direct appenders and
// for multiple stores sharing a log. A multi-policy write
// (pap.Store.PutAll) is one Append: consecutive frames behind one fsync,
// of which a crash may leave a durable prefix. A write error fail-stops
// the log (subsequent appends return the sticky fault) rather than
// risking a half-written log that looks healthy.
//
// # Snapshots and compaction
//
// Every SnapshotEvery records (and on graceful Close) the log writes the
// full materialised policy state to a snapshot file — temp file, fsync,
// atomic rename, directory fsync — then rotates to a fresh WAL segment and
// deletes the segments the snapshot covers. Recovery cost is therefore
// bounded by the snapshot interval, not by the log's lifetime.
//
// # Crash recovery
//
// Open loads the newest decodable snapshot and replays the WAL tail
// beyond it. A torn or corrupt record in the final segment marks the end
// of the log: the tail is truncated at the last whole record, never
// partially applied (a torn record was never acknowledged, so nothing
// acknowledged is lost). Corruption anywhere earlier is a hard error.
// Bootstrap then rebuilds the world through the existing delta pipeline:
// snapshot state hydrates the pap.Store, the assembled root installs into
// the decision point via SetRoot, and each tail record replays through
// pap.Apply — pdp.Engine.ApplyUpdate / cluster.Router.ApplyUpdate — the
// exact path live administration uses.
package store
