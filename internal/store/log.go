package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"repro/internal/pap"
	"repro/internal/policy"
)

// ErrClosed reports an append to a closed log.
var ErrClosed = errors.New("store: log closed")

// Options tunes a Log. The zero value gives sensible defaults.
type Options struct {
	// SnapshotEvery is the number of WAL records between snapshots
	// (and WAL compactions). 0 means the default of 1024; negative
	// disables snapshots entirely (the WAL grows without bound — useful
	// for tests and benchmarks that want a single raw segment).
	SnapshotEvery int
}

const defaultSnapshotEvery = 1024

// Stats counts the log's persistence activity.
type Stats struct {
	// LastSeq is the sequence number of the newest durable record.
	LastSeq uint64
	// Appends counts records made durable; Fsyncs counts WAL fsyncs
	// (one per Append call, however many records it carries).
	Appends, Fsyncs uint64
	// Snapshots counts snapshots written; SnapshotSeq is the sequence
	// number the newest one covers; SnapshotFailures counts snapshot
	// attempts that failed (the WAL keeps the data safe regardless).
	Snapshots, SnapshotSeq, SnapshotFailures uint64
	// RecoveredSnapshot and RecoveredTail describe what Open found: the
	// number of policy entries hydrated from the snapshot and the number
	// of WAL tail records replayed beyond it.
	RecoveredSnapshot, RecoveredTail int
	// TruncatedBytes is the torn/corrupt tail discarded at recovery.
	TruncatedBytes int64
}

// RecoveredEntry is one policy's state as the latest snapshot recorded
// it; see pap.Store.Hydrate for the field semantics.
type RecoveredEntry struct {
	ID       string
	Versions int
	Deleted  bool
	Policy   policy.Evaluable // nil when Deleted
}

// Log is a durable policy store: a CRC-framed, fsynced write-ahead log
// of pap.Update records with periodic snapshot/compact cycles. It
// implements pap.Backend, so attaching it to a pap.Store (which Bootstrap
// does) makes every acknowledged administrative write crash-durable.
//
// Concurrency: Append/Commit may be called from any goroutine; each runs
// in its caller under mu, so concurrent appends are written and fsynced
// one call after another. Stats reads a separate lock and never waits
// behind an fsync.
type Log struct {
	dir  string
	opts Options

	// mu guards the files and the materialised state (recovery runs
	// before the log is shared).
	mu        sync.Mutex
	file      *os.File
	lockFile  *os.File
	segStart  uint64
	segs      []uint64
	seq       uint64
	state     map[string]*stateEntry
	sinceSnap int
	failed    error // sticky fault: fail-stop after a write error
	closed    bool

	statsMu sync.Mutex
	stats   Stats

	recoveredSnap []RecoveredEntry
	recoveredTail []pap.Update
}

// Open recovers the data directory (creating it if needed) and returns a
// log ready for appends: the newest decodable snapshot is loaded, the WAL
// tail beyond it is replayed, and a torn or corrupt record at the very
// end of the log is truncated — never partially applied. The recovered
// state is exposed via RecoveredSnapshot/RecoveredTail and, more usefully,
// rebuilt into a pap.Store by Bootstrap.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l := &Log{dir: dir, opts: opts, state: make(map[string]*stateEntry)}
	if err := l.lockDir(); err != nil {
		return nil, err
	}
	if err := l.recover(); err != nil {
		l.unlockDir()
		return nil, err
	}
	return l, nil
}

// lockDir takes an advisory exclusive lock on the data directory so two
// processes (or two Logs) cannot interleave appends into one WAL — the
// seq-numbered frames of two writers would brick the next recovery. The
// kernel releases a flock when the process dies, so a kill -9 leaves no
// stale lock behind.
func (l *Log) lockDir() error {
	f, err := os.OpenFile(filepath.Join(l.dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: data directory %s is locked by another process: %w", l.dir, err)
	}
	l.lockFile = f
	return nil
}

func (l *Log) unlockDir() {
	if l.lockFile != nil {
		_ = syscall.Flock(int(l.lockFile.Fd()), syscall.LOCK_UN)
		_ = l.lockFile.Close()
		l.lockFile = nil
	}
}

// RecoveredSnapshot returns the entries Open loaded from the newest valid
// snapshot, sorted by ID.
func (l *Log) RecoveredSnapshot() []RecoveredEntry { return l.recoveredSnap }

// RecoveredTail returns the WAL records Open replayed beyond the
// snapshot, in commit order.
func (l *Log) RecoveredTail() []pap.Update { return l.recoveredTail }

// Stats returns a copy of the persistence counters.
func (l *Log) Stats() Stats {
	l.statsMu.Lock()
	defer l.statsMu.Unlock()
	return l.stats
}

// Append makes updates durable: it writes their records as consecutive
// frames, in order, fsyncs once and only then returns. One call is one
// request, however many updates it carries; concurrent calls run one
// after another. A call whose update cannot be encoded, or whose put
// would make a snapshot entry larger than one frame (so the log could
// never compact again), fails whole, writing none of its records. After a write error the log fail-stops:
// the failed append and every later one return the fault. A call that
// crosses the snapshot threshold snapshots once before it returns, so a
// caller whose Append has returned sees a quiescent data directory.
func (l *Log) Append(us ...pap.Update) error {
	if len(us) == 0 {
		return nil
	}
	for _, u := range us {
		if u.ID == "" || (!u.Deleted && u.Policy == nil) {
			return errors.New("store: append: update needs an ID and (for puts) a policy")
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return l.failed
	}
	var buf []byte
	docs := make([][]byte, len(us))
	for i, u := range us {
		var err error
		if buf, docs[i], err = encodeRecord(buf, l.seq+uint64(i)+1, u); err != nil {
			return err
		}
		if !u.Deleted && entrySize(&stateEntry{ID: u.ID, Versions: u.Version, Policy: docs[i]}) > snapshotFrameEntries {
			return fmt.Errorf("store: record %s: its snapshot entry exceeds the %d-byte frame bound", u.ID, maxFramePayload)
		}
	}
	if err := l.writeAndSync(buf); err != nil {
		// Fail-stop: the segment may now hold a partial frame; recovery
		// will truncate it, and no later append may succeed and be
		// ordered after a write that was never acknowledged.
		l.failed = fmt.Errorf("store: wal write: %w", err)
		return l.failed
	}
	// Only after the fsync does the materialised state advance: the
	// in-memory view never runs ahead of the disk.
	for i, u := range us {
		l.seq++
		l.applyState(u, docs[i])
	}
	l.sinceSnap += len(us)
	l.statsMu.Lock()
	l.stats.LastSeq = l.seq
	l.stats.Appends += uint64(len(us))
	l.stats.Fsyncs++
	l.statsMu.Unlock()
	if l.opts.SnapshotEvery > 0 && l.sinceSnap >= l.opts.SnapshotEvery {
		l.snapshotAndRotate()
	}
	return nil
}

// Commit implements pap.Backend.
func (l *Log) Commit(us ...pap.Update) error { return l.Append(us...) }

// Close waits for an append in progress, writes a final snapshot when
// snapshots are enabled and records have accumulated since the last one,
// and closes the files. Further appends return ErrClosed. After a write
// error Close returns that fault.
func (l *Log) Close() error { return l.stop(false) }

// Crash closes the log leaving the on-disk shape a kill -9 would: the
// final snapshot/compaction of Close is skipped, so the directory keeps
// its snapshot + WAL tail exactly as recovery will find them. Tests,
// benchmarks and experiments use it to exercise the tail-replay path that
// a graceful Close would compact away.
func (l *Log) Crash() error { return l.stop(true) }

func (l *Log) stop(crash bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if !crash && l.failed == nil && l.opts.SnapshotEvery > 0 && l.sinceSnap > 0 {
		l.snapshotAndRotate()
	}
	err := l.file.Close()
	l.unlockDir()
	if l.failed != nil {
		return l.failed
	}
	return err
}

// --- recovery ---

func (l *Log) recover() error {
	segs, snaps, err := scanDir(l.dir)
	if err != nil {
		return err
	}
	snapSeq, err := l.loadSnapshot(snaps)
	if err != nil {
		return err
	}
	l.seq = snapSeq
	if err := l.replaySegments(segs, snapSeq); err != nil {
		return err
	}
	// The replayed tail counts toward the snapshot threshold, so a log
	// that recovers a long tail compacts it at the next opportunity
	// instead of replaying it again on every restart.
	l.sinceSnap = len(l.recoveredTail)
	l.segs = segs
	// Open the newest segment for appends, or start a fresh one.
	if len(l.segs) == 0 {
		if err := l.openSegment(l.seq + 1); err != nil {
			return err
		}
	} else {
		l.segStart = l.segs[len(l.segs)-1]
		f, err := os.OpenFile(filepath.Join(l.dir, segName(l.segStart)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: reopen segment: %w", err)
		}
		l.file = f
	}
	l.statsMu.Lock()
	l.stats.LastSeq = l.seq
	l.stats.SnapshotSeq = snapSeq
	l.stats.RecoveredSnapshot = len(l.recoveredSnap)
	l.stats.RecoveredTail = len(l.recoveredTail)
	l.statsMu.Unlock()
	return nil
}

// loadSnapshot decodes the newest readable snapshot into the materialised
// state and returns the sequence number it covers (0 when none exists).
// Snapshot writes are atomic (temp file + rename), so under crash-only
// failures the newest snapshot is always whole; falling back to an older
// one covers the file itself being damaged after the fact, and works
// whenever the WAL segments it needs were not yet compacted away (a
// sequence gap is then caught by replaySegments).
func (l *Log) loadSnapshot(snaps []uint64) (uint64, error) {
	var firstErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		path := filepath.Join(l.dir, snapName(snaps[i]))
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		doc, err := unmarshalSnapshotFile(data, snaps[i])
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("store: snapshot %s: %w", path, err)
			}
			continue
		}
		for j := range doc.Entries {
			ent := doc.Entries[j]
			rec := RecoveredEntry{ID: ent.ID, Versions: ent.Versions, Deleted: ent.Deleted}
			if !ent.Deleted {
				e, err := unmarshalPolicy(ent.Policy)
				if err != nil {
					return 0, fmt.Errorf("store: snapshot entry %s: %w", ent.ID, err)
				}
				rec.Policy = e
			}
			l.recoveredSnap = append(l.recoveredSnap, rec)
			entCopy := ent
			l.state[ent.ID] = &entCopy
		}
		return doc.Seq, nil
	}
	if len(snaps) > 0 {
		return 0, fmt.Errorf("store: no readable snapshot: %w", firstErr)
	}
	return 0, nil
}

// replaySegments walks the WAL segments in order, skipping records the
// snapshot already covers, truncating a torn tail in the final segment,
// and rejecting corruption anywhere else.
func (l *Log) replaySegments(segs []uint64, snapSeq uint64) error {
	for i, start := range segs {
		path := filepath.Join(l.dir, segName(start))
		// A segment's name is the first sequence number it may hold, so
		// a start beyond the replayed position means the records in
		// between are gone (e.g. a damaged newest snapshot forced a
		// fallback whose WAL was already compacted): refuse rather than
		// silently lose acknowledged writes.
		if start > l.seq+1 {
			return fmt.Errorf("store: segment %s starts at seq %d but the log only reaches %d", path, start, l.seq)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		payloads, goodLen, torn := scanFrames(data)
		if torn {
			if i != len(segs)-1 {
				// A torn record can only exist where the log
				// stopped being written; mid-log damage is real
				// corruption and recovery must not guess.
				return fmt.Errorf("store: segment %s: corrupt record mid-log (offset %d)", path, goodLen)
			}
			if err := os.Truncate(path, goodLen); err != nil {
				return fmt.Errorf("store: truncate torn tail: %w", err)
			}
			syncDir(l.dir)
			l.statsMu.Lock()
			l.stats.TruncatedBytes += int64(len(data)) - goodLen
			l.statsMu.Unlock()
		}
		for _, payload := range payloads {
			rec, u, err := decodeRecord(payload)
			if err != nil {
				return fmt.Errorf("store: segment %s: %w", path, err)
			}
			if rec.Seq <= snapSeq {
				continue // already folded into the snapshot
			}
			if rec.Seq != l.seq+1 {
				return fmt.Errorf("store: segment %s: sequence gap: record %d after %d", path, rec.Seq, l.seq)
			}
			l.seq = rec.Seq
			if l.applyState(u, rec.Policy) {
				l.recoveredTail = append(l.recoveredTail, u)
			}
		}
	}
	return nil
}

// applyState folds one durable record into the materialised state the
// next snapshot will persist. The state keeps doc itself: the caller
// hands over a document it owns (fresh from the encoder, or decoded from
// disk) and never writes to it again. A delete of an ID with no live
// entry changes nothing and reports false: an entry it created would
// carry no version, and the next snapshot could not be read back.
func (l *Log) applyState(u pap.Update, doc []byte) bool {
	ent := l.state[u.ID]
	if u.Deleted {
		if ent == nil || ent.Deleted {
			return false
		}
		ent.Deleted = true
		ent.Policy = nil
		return true
	}
	if ent == nil {
		ent = &stateEntry{ID: u.ID}
		l.state[u.ID] = ent
	}
	ent.Deleted = false
	ent.Versions = u.Version
	ent.Policy = doc
	return true
}

func (l *Log) writeAndSync(buf []byte) error {
	if _, err := l.file.Write(buf); err != nil {
		return err
	}
	return l.file.Sync()
}

// snapshotAndRotate persists the materialised state (temp file, fsync,
// atomic rename, directory fsync), starts a fresh WAL segment, and
// deletes the segments and older snapshots the new snapshot supersedes.
// The previous snapshot is kept as a fallback. Failure is not fatal: the
// WAL still holds everything, so the attempt is just counted and retried
// after the next append.
func (l *Log) snapshotAndRotate() {
	if err := l.trySnapshot(); err != nil {
		l.statsMu.Lock()
		l.stats.SnapshotFailures++
		l.statsMu.Unlock()
		return
	}
	l.sinceSnap = 0
	l.statsMu.Lock()
	l.stats.Snapshots++
	l.stats.SnapshotSeq = l.seq
	l.statsMu.Unlock()
}

func (l *Log) trySnapshot() error {
	snap, err := marshalSnapshot(l.seq, l.state)
	if err != nil {
		return err
	}
	final := filepath.Join(l.dir, snapName(l.seq))
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(snap)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	syncDir(l.dir)

	// Rotate to a fresh segment; only then are the superseded files
	// expendable.
	old := l.file
	oldSegs := l.segs
	if err := l.openSegment(l.seq + 1); err != nil {
		// Keep appending to the old segment; the snapshot above is
		// still valid and recovery skips duplicated sequence numbers.
		return err
	}
	_ = old.Close()
	for _, start := range oldSegs {
		_ = os.Remove(filepath.Join(l.dir, segName(start)))
	}
	l.pruneSnapshots()
	return nil
}

// openSegment creates wal-<startSeq> and makes it the append target.
func (l *Log) openSegment(startSeq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(startSeq)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	syncDir(l.dir)
	l.file = f
	l.segStart = startSeq
	l.segs = []uint64{startSeq}
	return nil
}

// pruneSnapshots keeps the two newest snapshots (current + fallback).
func (l *Log) pruneSnapshots() {
	_, snaps, err := scanDir(l.dir)
	if err != nil {
		return
	}
	for len(snaps) > 2 {
		_ = os.Remove(filepath.Join(l.dir, snapName(snaps[0])))
		snaps = snaps[1:]
	}
}
