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
// torn and corrupt tail records are detectable. A record is encoded in
// one pass: the policy document is xacml's compact JSON, and the
// record's fields are appended around it, in place, into the frame the
// log writes. The log keeps that document as its materialised state and
// splices it into snapshots unchanged, so no policy is encoded twice and
// no encoded byte is compacted or validated again. The bytes equal
// encoding/json's of the record and snapshot structs the decoders read. The Log is attached to a
// pap.Store as its Backend: the store commits each write to the log
// before the write becomes visible in memory or to any watcher, in
// commit order.
//
// # Durability contract
//
// Append writes, fsyncs and updates the log's state in its caller, under
// one mutex, and returns only after its records are on disk: an
// acknowledged write is durable, full stop. Each call costs one fsync,
// however many updates it carries, and concurrent calls run one after
// another. Batching is the caller's job: a multi-policy write
// (pap.Store.PutAll) is one Append — consecutive frames behind one fsync,
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
// bounded by the snapshot interval, not by the log's lifetime. A state
// larger than one frame is written as several frames, each naming the
// frame count, so a base of any size compacts and a snapshot missing a
// frame is refused at recovery.
//
// # Crash recovery
//
// Open loads the newest decodable snapshot and replays the WAL tail
// beyond it. A torn or corrupt record in the final segment marks the end
// of the log: the tail is truncated at the last whole record, never
// partially applied (a torn record was never acknowledged, so nothing
// acknowledged is lost). Corruption anywhere earlier is a hard error.
// Bootstrap then rebuilds the pap.Store: snapshot state hydrates it, the
// tail records replay into it, and the log attaches as its backend. A
// decision point recovers by following the rebuilt store (pap.Follow):
// the recovered base installs as one root, and every later write reaches
// the point through ApplyUpdate — the path live administration uses.
package store
