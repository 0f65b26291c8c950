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
	// MaxBatch caps how many queued appends one fsync may absorb (group
	// commit). 0 means the default of 64.
	MaxBatch int
}

const (
	defaultSnapshotEvery = 1024
	defaultMaxBatch      = 64
)

// Stats counts the log's persistence activity.
type Stats struct {
	// LastSeq is the sequence number of the newest durable record.
	LastSeq uint64
	// Appends counts records made durable; Batches counts the fsync
	// groups that carried them (Appends/Batches is the achieved group-
	// commit factor); Fsyncs counts WAL fsyncs (one per batch).
	Appends, Batches, Fsyncs uint64
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

type appendReq struct {
	us   []pap.Update
	done chan error
}

// Log is a durable policy store: a CRC-framed, fsync-batched write-ahead
// log of pap.Update records with periodic snapshot/compact cycles. It
// implements pap.Backend, so attaching it to a pap.Store (which Bootstrap
// does) makes every acknowledged administrative write crash-durable.
//
// Concurrency: Append/Commit may be called from any goroutine; a single
// internal syncer goroutine owns the files and the materialised state,
// absorbing concurrent appends into group commits.
type Log struct {
	dir  string
	opts Options

	// Owned by the syncer goroutine (recovery runs before it starts).
	file      *os.File
	lockFile  *os.File
	segStart  uint64
	segs      []uint64
	seq       uint64
	state     map[string]*stateEntry
	sinceSnap int
	failed    error // sticky fault: fail-stop after a write error

	appendCh chan *appendReq
	quit     chan struct{}
	done     chan struct{}
	closeErr error

	closeMu sync.RWMutex
	closed  bool
	// skipCloseSnapshot is set by Crash before quit closes, so the
	// channel close publishes it to the syncer's shutdown.
	skipCloseSnapshot bool

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
// replayed into a live system by Bootstrap.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = defaultMaxBatch
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		state:    make(map[string]*stateEntry),
		appendCh: make(chan *appendReq, opts.MaxBatch),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if err := l.lockDir(); err != nil {
		return nil, err
	}
	if err := l.recover(); err != nil {
		l.unlockDir()
		return nil, err
	}
	go l.run()
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

// Append makes updates durable: it returns only after their records (and
// everything queued before them) have been written, as consecutive frames
// in order, and fsynced. One call is one request, however many updates it
// carries; concurrent appenders share fsyncs via group commit. A call
// whose update cannot be encoded fails whole, writing none of its records.
// After a write error the log fail-stops: the failed append and every
// later one return the fault.
func (l *Log) Append(us ...pap.Update) error {
	if len(us) == 0 {
		return nil
	}
	for _, u := range us {
		if u.ID == "" || (!u.Deleted && u.Policy == nil) {
			return errors.New("store: append: update needs an ID and (for puts) a policy")
		}
	}
	req := &appendReq{us: us, done: make(chan error, 1)}
	l.closeMu.RLock()
	if l.closed {
		l.closeMu.RUnlock()
		return ErrClosed
	}
	l.appendCh <- req
	l.closeMu.RUnlock()
	return <-req.done
}

// Commit implements pap.Backend.
func (l *Log) Commit(us ...pap.Update) error { return l.Append(us...) }

// Close stops the log after draining queued appends (each still honouring
// the durability contract), writes a final snapshot when snapshots are
// enabled and records have accumulated since the last one, and closes the
// files. Further appends return ErrClosed.
func (l *Log) Close() error { return l.stop(false) }

// Crash closes the log leaving the on-disk shape a kill -9 would: queued
// appends are still made durable (in a real crash they would merely be
// unacknowledged, which is always safe to persist), but the final
// snapshot/compaction of Close is skipped, so the directory keeps its
// snapshot + WAL tail exactly as recovery will find them. Tests,
// benchmarks and experiments use it to exercise the tail-replay path that
// a graceful Close would compact away.
func (l *Log) Crash() error { return l.stop(true) }

func (l *Log) stop(crash bool) error {
	l.closeMu.Lock()
	if l.closed {
		l.closeMu.Unlock()
		return nil
	}
	l.closed = true
	l.skipCloseSnapshot = crash
	l.closeMu.Unlock()
	close(l.quit)
	<-l.done
	return l.closeErr
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
		payloads, _, torn := scanFrames(data)
		if torn || len(payloads) != 1 {
			if firstErr == nil {
				firstErr = fmt.Errorf("store: snapshot %s: malformed frame", path)
			}
			continue
		}
		doc, err := unmarshalSnapshot(payloads[0])
		if err != nil || doc.Seq != snaps[i] {
			if firstErr == nil {
				if err == nil {
					err = fmt.Errorf("covers seq %d, name says %d", doc.Seq, snaps[i])
				}
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
			l.applyState(u, rec.Policy)
			l.recoveredTail = append(l.recoveredTail, u)
		}
	}
	return nil
}

// applyState folds one durable record into the materialised state the
// next snapshot will persist.
func (l *Log) applyState(u pap.Update, doc []byte) {
	ent := l.state[u.ID]
	if ent == nil {
		ent = &stateEntry{ID: u.ID}
		l.state[u.ID] = ent
	}
	if u.Deleted {
		ent.Deleted = true
		ent.Policy = nil
		return
	}
	ent.Deleted = false
	ent.Versions = u.Version
	ent.Policy = append([]byte(nil), doc...)
}

// --- the syncer goroutine ---

func (l *Log) run() {
	defer close(l.done)
	for {
		select {
		case req := <-l.appendCh:
			l.commitBatch(l.gather(req))
		case <-l.quit:
			for {
				select {
				case req := <-l.appendCh:
					l.commitBatch(l.gather(req))
				default:
					l.shutdown()
					return
				}
			}
		}
	}
}

// gather drains whatever else is already queued behind first, up to the
// group-commit cap: every request collected here shares one fsync.
func (l *Log) gather(first *appendReq) []*appendReq {
	batch := append(make([]*appendReq, 0, l.opts.MaxBatch), first)
	for len(batch) < l.opts.MaxBatch {
		select {
		case req := <-l.appendCh:
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// commitBatch writes every record of the batch's requests as consecutive
// frames, fsyncs once, and acknowledges every request; a batch that
// crosses the snapshot threshold snapshots once, however many records it
// carries. Only after the fsync does the materialised state advance — the
// in-memory view never runs ahead of the disk.
func (l *Log) commitBatch(batch []*appendReq) {
	if l.failed != nil {
		for _, req := range batch {
			req.done <- l.failed
		}
		return
	}
	var (
		buf   []byte
		acked []*appendReq
		docs  [][]byte
	)
	for _, req := range batch {
		// A request is all or nothing: an unencodable update withdraws
		// the frames of its request's earlier updates.
		mark, ndocs := len(buf), len(docs)
		var err error
		for _, u := range req.us {
			var payload, doc []byte
			payload, doc, err = encodeRecord(l.seq+uint64(len(docs))+1, u)
			if err != nil {
				break
			}
			buf = appendFrame(buf, payload)
			docs = append(docs, doc)
		}
		if err != nil {
			buf, docs = buf[:mark], docs[:ndocs]
			req.done <- err
			continue
		}
		acked = append(acked, req)
	}
	if len(acked) == 0 {
		return
	}
	err := l.writeAndSync(buf)
	if err != nil {
		// Fail-stop: the segment may now hold a partial frame; recovery
		// will truncate it, and no later append may succeed and be
		// ordered after a write that was never acknowledged.
		l.failed = fmt.Errorf("store: wal write: %w", err)
		for _, req := range acked {
			req.done <- l.failed
		}
		return
	}
	i := 0
	for _, req := range acked {
		for _, u := range req.us {
			l.seq++
			l.applyState(u, docs[i])
			i++
		}
	}
	l.sinceSnap += len(docs)
	l.statsMu.Lock()
	l.stats.LastSeq = l.seq
	l.stats.Appends += uint64(len(docs))
	l.stats.Batches++
	l.stats.Fsyncs++
	l.statsMu.Unlock()
	// A due snapshot completes before the batch is acknowledged: the
	// writer that crosses the threshold pays for it, and a caller whose
	// Append has returned sees a quiescent data directory (no snapshot
	// or rotation still running behind its back).
	if l.opts.SnapshotEvery > 0 && l.sinceSnap >= l.opts.SnapshotEvery {
		l.snapshotAndRotate()
	}
	for _, req := range acked {
		req.done <- nil
	}
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
// after the next batch.
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
	payload, err := marshalSnapshot(l.seq, l.state)
	if err != nil {
		return err
	}
	final := filepath.Join(l.dir, snapName(l.seq))
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(appendFrame(nil, payload))
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

func (l *Log) shutdown() {
	if !l.skipCloseSnapshot && l.failed == nil && l.opts.SnapshotEvery > 0 && l.sinceSnap > 0 {
		l.snapshotAndRotate()
	}
	if l.file != nil {
		if err := l.file.Close(); err != nil && l.closeErr == nil {
			l.closeErr = err
		}
	}
	if l.failed != nil && l.closeErr == nil {
		l.closeErr = l.failed
	}
	l.unlockDir()
}
