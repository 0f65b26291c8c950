package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pap"
	"repro/internal/pdp"
	"repro/internal/policy"
	"repro/internal/xacml"
)

// testPolicy builds a small deterministic policy: permit "read" on the
// resource, deny otherwise, with a marker rule ID so revisions differ.
func testPolicy(id, resource, marker string) *policy.Policy {
	return policy.NewPolicy(id).
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID(resource)).
		Rule(policy.Permit("allow-" + marker).When(policy.MatchActionID("read")).Build()).
		Rule(policy.Deny("default").Build()).
		Build()
}

func putUpdate(id, resource, marker string, version int) pap.Update {
	return pap.Update{ID: id, Version: version, Policy: testPolicy(id, resource, marker)}
}

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func policyJSON(t *testing.T, e policy.Evaluable) string {
	t.Helper()
	data, err := xacml.MarshalJSON(e)
	if err != nil {
		t.Fatalf("marshal policy: %v", err)
	}
	return string(data)
}

func sameUpdate(t *testing.T, got, want pap.Update) {
	t.Helper()
	if got.ID != want.ID || got.Version != want.Version || got.Deleted != want.Deleted {
		t.Fatalf("update = %+v, want %+v", got, want)
	}
	if (got.Policy == nil) != (want.Policy == nil) {
		t.Fatalf("update policy presence = %v, want %v", got.Policy != nil, want.Policy != nil)
	}
	if got.Policy != nil && policyJSON(t, got.Policy) != policyJSON(t, want.Policy) {
		t.Fatalf("update %s policy round-trip drifted", got.ID)
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: -1})
	seq := []pap.Update{
		putUpdate("p-a", "res-1", "v1", 1),
		putUpdate("p-b", "res-2", "v1", 1),
		putUpdate("p-a", "res-1", "v2", 2),
		{ID: "p-b", Deleted: true},
		putUpdate("p-c", "res-3", "v1", 1),
	}
	for _, u := range seq {
		if err := l.Append(u); err != nil {
			t.Fatalf("Append(%s): %v", u.ID, err)
		}
	}
	if st := l.Stats(); st.LastSeq != uint64(len(seq)) || st.Appends != uint64(len(seq)) {
		t.Fatalf("stats after appends = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Append(seq[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}

	r := mustOpen(t, dir, Options{SnapshotEvery: -1})
	defer r.Close()
	tail := r.RecoveredTail()
	if len(r.RecoveredSnapshot()) != 0 || len(tail) != len(seq) {
		t.Fatalf("recovered %d snapshot + %d tail, want 0 + %d",
			len(r.RecoveredSnapshot()), len(tail), len(seq))
	}
	for i := range seq {
		sameUpdate(t, tail[i], seq[i])
	}

	s := pap.NewStore("recovered")
	engine := pdp.New("recovered")
	recoverInto(t, r, s, engine)
	if got := s.List(); len(got) != 2 || got[0] != "p-a" || got[1] != "p-c" {
		t.Fatalf("List = %v", got)
	}
	if s.History("p-a") != 2 {
		t.Fatalf("History(p-a) = %d, want 2", s.History("p-a"))
	}
	if res := policy.Decide(context.Background(), engine, policy.NewAccessRequest("u", "res-1", "read"), time.Time{}); res.Decision != policy.DecisionPermit {
		t.Fatalf("decide res-1 = %v, want permit", res.Decision)
	}
	if res := policy.Decide(context.Background(), engine, policy.NewAccessRequest("u", "res-2", "read"), time.Time{}); res.Decision != policy.DecisionNotApplicable {
		t.Fatalf("decide deleted res-2 = %v, want not-applicable", res.Decision)
	}
	// A write after bootstrap goes through the reattached backend.
	if _, err := s.Put(testPolicy("p-d", "res-4", "v1")); err != nil {
		t.Fatalf("Put after bootstrap: %v", err)
	}
	if st := r.Stats(); st.LastSeq != uint64(len(seq))+1 {
		t.Fatalf("LastSeq after post-bootstrap put = %d, want %d", st.LastSeq, len(seq)+1)
	}
}

func TestSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: 4})
	var want []pap.Update
	for i := 0; i < 11; i++ {
		u := putUpdate(fmt.Sprintf("p-%02d", i%5), fmt.Sprintf("res-%d", i%5), fmt.Sprintf("v%d", i), i/5+1)
		want = append(want, u)
		if err := l.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Snapshots < 2 {
		t.Fatalf("Snapshots = %d, want >= 2 (11 appends at interval 4)", st.Snapshots)
	}
	if err := l.Close(); err != nil { // close snapshots the remainder
		t.Fatal(err)
	}

	segs, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 || len(snaps) > 2 {
		t.Fatalf("snapshots on disk = %d, want 1..2 (pruned)", len(snaps))
	}
	if len(segs) != 1 {
		t.Fatalf("segments on disk = %v, want exactly the fresh one", segs)
	}

	r := mustOpen(t, dir, Options{SnapshotEvery: 4})
	defer r.Close()
	if n := len(r.RecoveredTail()); n != 0 {
		t.Fatalf("tail after graceful close = %d records, want 0 (all in snapshot)", n)
	}
	s := pap.NewStore("s")
	if err := r.Bootstrap(s); err != nil {
		t.Fatal(err)
	}
	if got := len(s.List()); got != 5 {
		t.Fatalf("recovered %d live policies, want 5", got)
	}
	if s.History("p-00") != 3 {
		t.Fatalf("History(p-00) = %d, want 3 (counter survives compaction)", s.History("p-00"))
	}
}

// TestDeleteOfUnknownIDKeepsLogReadable pins that a delete of an ID the
// log never saw live changes no state: the snapshot it triggers reads
// back after compaction, a WAL tail that still holds the record replays,
// and either way the log reopens with the live policy recovered.
func TestDeleteOfUnknownIDKeepsLogReadable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		every int
		crash bool
	}{
		{"compacted", 2, false},
		{"wal-tail", -1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, Options{SnapshotEvery: tc.every})
			if err := l.Append(putUpdate("p-ok", "res-ok", "v", 1)); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(pap.Update{ID: "p-ghost", Deleted: true}); err != nil {
				t.Fatal(err)
			}
			if st := l.Stats(); st.SnapshotFailures != 0 {
				t.Fatalf("SnapshotFailures = %d, want 0", st.SnapshotFailures)
			}
			stop := l.Close
			if tc.crash {
				stop = l.Crash
			}
			if err := stop(); err != nil {
				t.Fatal(err)
			}

			r := mustOpen(t, dir, Options{SnapshotEvery: tc.every})
			defer r.Close()
			s := pap.NewStore("s")
			if err := r.Bootstrap(s); err != nil {
				t.Fatal(err)
			}
			if ids := s.List(); len(ids) != 1 || ids[0] != "p-ok" {
				t.Fatalf("recovered %v, want [p-ok]", ids)
			}
		})
	}
}

func TestTornTailTruncatedNeverPartiallyApplied(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: -1})
	for i := 0; i < 3; i++ {
		if err := l.Append(putUpdate(fmt.Sprintf("p-%d", i), "res", fmt.Sprintf("v%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		mutate   []byte
		wantTail int
	}{
		{"garbage-appended", append(append([]byte{}, whole...), 0xde, 0xad, 0xbe), 3},
		{"last-record-halved", whole[:len(whole)-7], 2},
		{"crc-flipped", flipLastPayloadByte(whole), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir2 := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir2, segName(1)), tc.mutate, 0o644); err != nil {
				t.Fatal(err)
			}
			r := mustOpen(t, dir2, Options{SnapshotEvery: -1})
			defer r.Close()
			if got := len(r.RecoveredTail()); got != tc.wantTail {
				t.Fatalf("recovered %d records, want %d", got, tc.wantTail)
			}
			if st := r.Stats(); st.TruncatedBytes == 0 {
				t.Fatal("TruncatedBytes = 0, want > 0")
			}
			// The torn bytes are gone from disk: a second recovery is clean.
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			r2 := mustOpen(t, dir2, Options{SnapshotEvery: -1})
			defer r2.Close()
			if st := r2.Stats(); st.TruncatedBytes != 0 {
				t.Fatalf("second recovery still truncating %d bytes", st.TruncatedBytes)
			}
		})
	}
}

// flipLastPayloadByte corrupts the final byte of the file (inside the last
// record's payload), leaving the length field intact so only the CRC can
// catch it.
func flipLastPayloadByte(whole []byte) []byte {
	out := append([]byte(nil), whole...)
	out[len(out)-1] ^= 0xFF
	return out
}

func TestCorruptionMidLogIsFatal(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: 2})
	for i := 0; i < 5; i++ {
		if err := l.Append(putUpdate(fmt.Sprintf("p-%d", i), "res", "v", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Damage a non-final segment: that is not a torn tail, and recovery
	// must refuse rather than guess.
	if len(segs) < 2 {
		// Graceful close compacted everything into one snapshot; force
		// the shape with a synthetic earlier segment of garbage.
		if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		path := filepath.Join(dir, segName(segs[0]))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Skip("first segment empty")
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open succeeded over mid-log corruption")
	}
}

// TestConcurrentAppendsSerialised: concurrent direct appenders run one
// call after another, each behind its own fsync, and every record is
// recovered exactly once with each writer's records in its own order.
func TestConcurrentAppendsSerialised(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: -1})
	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("p-%d-%d", w, i)
				if err := l.Append(putUpdate(id, "res-"+id, "v1", 1)); err != nil {
					t.Errorf("Append(%s): %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != writers*perWriter || st.Fsyncs != st.Appends {
		t.Fatalf("Appends = %d, Fsyncs = %d: want %d of each", st.Appends, st.Fsyncs, writers*perWriter)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{SnapshotEvery: -1})
	defer r.Close()
	if got := len(r.RecoveredTail()); got != writers*perWriter {
		t.Fatalf("recovered %d records, want %d", got, writers*perWriter)
	}
	next := make([]int, writers)
	for _, u := range r.RecoveredTail() {
		var w, i int
		if _, err := fmt.Sscanf(u.ID, "p-%d-%d", &w, &i); err != nil {
			t.Fatalf("record %q: %v", u.ID, err)
		}
		if i != next[w] {
			t.Fatalf("record %s recovered where writer %d's record %d was due", u.ID, w, next[w])
		}
		next[w]++
	}
}

// TestConcurrentAppendsFromPAPWriters: 16 pap.Store writers on one Log
// pay one fsync per write (the store commits under its notification lock,
// so no two writes ever reach the log together), and the order the WAL
// recovers is the order watchers saw and the order versions were
// assigned. Batching concurrent writers must keep that invariant.
func TestConcurrentAppendsFromPAPWriters(t *testing.T) {
	const writers, perWriter, ids = 16, 25, 4
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: -1})
	s := pap.NewStore("writers")
	if err := l.Bootstrap(s); err != nil {
		t.Fatal(err)
	}
	var watched []pap.Update // watchers run serialised, in commit order
	s.Watch(func(u pap.Update) { watched = append(watched, u) })
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("p-%d", (w+i)%ids)
				if _, err := s.Put(testPolicy(id, "res-"+id, fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("Put(%s): %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	const total = writers * perWriter
	if st := l.Stats(); st.Appends != total || st.Fsyncs != total {
		t.Fatalf("Appends = %d, Fsyncs = %d: want %d of each", st.Appends, st.Fsyncs, total)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{SnapshotEvery: -1})
	defer r.Close()
	tail := r.RecoveredTail()
	if len(tail) != total || len(watched) != total {
		t.Fatalf("recovered %d records, watched %d updates, want %d", len(tail), len(watched), total)
	}
	version := make(map[string]int)
	for i, u := range tail {
		if u.ID != watched[i].ID || u.Version != watched[i].Version {
			t.Fatalf("WAL record %d is %s v%d, watchers saw %s v%d", i, u.ID, u.Version, watched[i].ID, watched[i].Version)
		}
		if version[u.ID]++; u.Version != version[u.ID] {
			t.Fatalf("WAL record %d is %s v%d, want v%d", i, u.ID, u.Version, version[u.ID])
		}
	}
}

// TestWriteErrorFailStops: a failed segment write fail-stops the log. The
// failing Append and every later one return the sticky fault, so Close
// does too, and a reopen recovers exactly the acknowledged records.
func TestWriteErrorFailStops(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: -1})
	acked := []pap.Update{putUpdate("p-a", "res-a", "v", 1), putUpdate("p-b", "res-b", "v", 1)}
	for _, u := range acked {
		if err := l.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	// Pull the segment out from under the log: the next write fails.
	if err := l.file.Close(); err != nil {
		t.Fatal(err)
	}
	fault := l.Append(putUpdate("p-c", "res-c", "v", 1))
	if !errors.Is(fault, os.ErrClosed) {
		t.Fatalf("Append over a failed segment = %v, want the write fault", fault)
	}
	for _, us := range [][]pap.Update{
		{putUpdate("p-d", "res-d", "v", 1)},
		{putUpdate("p-e", "res-e", "v", 1), putUpdate("p-f", "res-f", "v", 1)},
	} {
		if err := l.Commit(us...); err != fault {
			t.Fatalf("Commit after the fault = %v, want the sticky %v", err, fault)
		}
	}
	if st := l.Stats(); st != before {
		t.Fatalf("failed appends moved the stats: %+v -> %+v", before, st)
	}
	if err := l.Close(); err != fault {
		t.Fatalf("Close = %v, want the sticky %v", err, fault)
	}
	if err := l.Append(putUpdate("p-g", "res-g", "v", 1)); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}

	r := mustOpen(t, dir, Options{SnapshotEvery: -1})
	defer r.Close()
	tail := r.RecoveredTail()
	if len(tail) != len(acked) {
		t.Fatalf("recovered %d records, want the %d acknowledged", len(tail), len(acked))
	}
	for i := range acked {
		sameUpdate(t, tail[i], acked[i])
	}
}

func TestSnapshotFallsBackWhenNewestDamaged(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: 2})
	for i := 0; i < 8; i++ {
		if err := l.Append(putUpdate(fmt.Sprintf("p-%d", i), "res", "v", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Skipf("only %d snapshots retained", len(snaps))
	}
	// Zero out the newest snapshot; recovery must fall back to the older
	// one and replay the still-present WAL tail beyond it... which was
	// compacted, so this only works when the fallback is self-sufficient
	// or the gap is detected. Either a clean fallback or a loud error is
	// acceptable; silently losing acknowledged writes is not.
	newest := filepath.Join(dir, snapName(snaps[len(snaps)-1]))
	if err := os.WriteFile(newest, bytes.Repeat([]byte{0}, 16), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{SnapshotEvery: 2})
	if err != nil {
		return // loud failure: acceptable, nothing silently lost
	}
	defer r.Close()
	s := pap.NewStore("s")
	if err := r.Bootstrap(s); err != nil {
		return
	}
	if got := len(s.List()); got == 8 {
		return // full state recovered through the fallback
	}
	t.Fatalf("recovery silently returned partial state (%d of 8 policies)", len(s.List()))
}

// TestSecondOpenRefused: two writers interleaving one WAL would brick the
// next recovery, so the directory lock must turn the mistake into a
// startup error instead.
func TestSecondOpenRefused(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of a locked directory succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{}) // released on close
	defer l2.Close()
}

// TestOversizedRecordRejectedAtWrite: a record the recovery scanner would
// refuse as corrupt must never be acknowledged.
func TestOversizedRecordRejected(t *testing.T) {
	huge := testPolicy("p-huge", "res", "v")
	huge.Description = string(make([]byte, maxFramePayload+1))
	if _, err := MarshalUpdate(1, pap.Update{ID: "p-huge", Version: 1, Policy: huge}); err == nil {
		t.Fatal("oversized record encoded without error")
	}
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: -1})
	defer l.Close()
	if err := l.Append(pap.Update{ID: "p-huge", Version: 1, Policy: huge}); err == nil {
		t.Fatal("oversized record acknowledged")
	}
	if err := l.Append(putUpdate("p-ok", "res", "v", 1)); err != nil {
		t.Fatalf("log unusable after rejected oversized record: %v", err)
	}
}

// TestVersionlessPutRejected: a snapshot entry needs a version of at
// least 1 to decode, so a put without one must never be acknowledged —
// the graceful Close would write it into a snapshot no recovery can read,
// after compacting away the WAL. The put fails alone or in a batch,
// nothing of it becomes durable, and the directory reopens.
func TestVersionlessPutRejected(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if err := l.Append(putUpdate("p-ok", "res-ok", "v", 1)); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, -1} {
		bad := pap.Update{ID: "p-bad", Version: v, Policy: testPolicy("p-bad", "res-bad", "v")}
		if err := l.Append(bad); err == nil {
			t.Fatalf("put at version %d acknowledged", v)
		}
		if err := l.Append(putUpdate("p-batch", "res-batch", "v", 1), bad); err == nil {
			t.Fatalf("batch with a put at version %d acknowledged", v)
		}
	}
	if st := l.Stats(); st.Appends != 1 || st.LastSeq != 1 {
		t.Fatalf("stats after rejected puts: %+v, want 1 append at seq 1", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	snap := l2.RecoveredSnapshot()
	if len(snap) != 1 || snap[0].ID != "p-ok" || snap[0].Versions != 1 || len(l2.RecoveredTail()) != 0 {
		t.Fatalf("recovered snapshot %+v, tail %d; want p-ok at version 1 only", snap, len(l2.RecoveredTail()))
	}
}

// TestOversizedSnapshotRefused: an entry too large for a snapshot frame
// of its own must not be snapshotted — recovery would reject the frame as
// corrupt after the compaction deleted the WAL. A record whose payload
// fills the frame bound exactly is acknowledged, yet its snapshot entry
// carries a few bytes more, so the attempt counts as a snapshot failure,
// the WAL keeps the record, and the directory reopens with it in its
// tail.
func TestOversizedSnapshotRefused(t *testing.T) {
	u := putUpdate("p-big", "res", "v", 1)
	desc := &u.Policy.(*policy.Policy).Description
	*desc = "x"
	payload, err := MarshalUpdate(1, u)
	if err != nil {
		t.Fatal(err)
	}
	*desc = strings.Repeat("x", 1+maxFramePayload-len(payload))
	if payload, err = MarshalUpdate(1, u); err != nil || len(payload) != maxFramePayload {
		t.Fatalf("record payload %d bytes (%v), want exactly the %d-byte bound", len(payload), err, maxFramePayload)
	}
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if err := l.Append(u); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Snapshots != 0 || st.SnapshotFailures != 1 {
		t.Fatalf("stats %+v, want the oversized snapshot refused once", st)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if got := len(l2.RecoveredTail()); got != 1 {
		t.Fatalf("recovered %d tail records, want 1", got)
	}
}

// writeLargeBase appends n policies of about size bytes each and closes
// the log, which snapshots them.
func writeLargeBase(t *testing.T, dir string, n, size int) {
	t.Helper()
	l := mustOpen(t, dir, Options{})
	for i := 0; i < n; i++ {
		u := putUpdate(fmt.Sprintf("p-%02d", i), fmt.Sprintf("res-%d", i), "v", 1)
		u.Policy.(*policy.Policy).Description = strings.Repeat("x", size)
		if err := l.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Snapshots != 1 || st.SnapshotFailures != 0 {
		t.Fatalf("stats %+v, want one snapshot and no failure", st)
	}
}

// TestLargeBaseSnapshotsInFrames: a state larger than one frame is
// snapshotted as several frames, so the log still compacts, and the
// directory reopens from the snapshot alone with every policy intact.
func TestLargeBaseSnapshotsInFrames(t *testing.T) {
	const n, size = 40, 500 << 10
	dir := t.TempDir()
	writeLargeBase(t, dir, n, size)
	_, snaps, err := scanDir(dir)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v (%v), want 1", snaps, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapName(snaps[0])))
	if err != nil {
		t.Fatal(err)
	}
	if payloads, _, torn := scanFrames(data); torn || len(payloads) < 2 {
		t.Fatalf("snapshot holds %d frames (torn %v), want at least 2", len(payloads), torn)
	}
	l := mustOpen(t, dir, Options{})
	defer l.Close()
	if st := l.Stats(); st.RecoveredSnapshot != n || st.RecoveredTail != 0 {
		t.Fatalf("recovered %d snapshot entries and %d tail records, want %d and 0",
			st.RecoveredSnapshot, st.RecoveredTail, n)
	}
	for i, ent := range l.RecoveredSnapshot() {
		p, ok := ent.Policy.(*policy.Policy)
		if want := fmt.Sprintf("p-%02d", i); ent.ID != want || !ok || len(p.Description) != size {
			t.Fatalf("entry %d = %s, want %s with its %d-byte description", i, ent.ID, want, size)
		}
	}
}

// TestSnapshotCutAtFrameBoundaryRefused: a multi-frame snapshot missing
// its last frame scans as whole frames, so only the frame count in each
// frame can tell; recovery must refuse it rather than hydrate a partial
// base.
func TestSnapshotCutAtFrameBoundaryRefused(t *testing.T) {
	dir := t.TempDir()
	writeLargeBase(t, dir, 40, 500<<10)
	_, snaps, err := scanDir(dir)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v (%v), want 1", snaps, err)
	}
	path := filepath.Join(dir, snapName(snaps[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads, _, _ := scanFrames(data)
	last := payloads[len(payloads)-1]
	if err := os.WriteFile(path, data[:len(data)-len(last)-frameHeader], 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := Open(dir, Options{}); err == nil {
		l.Close()
		t.Fatalf("a snapshot cut to %d of %d frames was recovered", len(payloads)-1, len(payloads))
	} else if !strings.Contains(err.Error(), "frames") {
		t.Fatalf("Open error %v, want the missing frame named", err)
	}
}

// TestSingleFrameSnapshotRecovers: the one-frame snapshot form, pinned by
// testdata/snapshot.golden, recovers as a snapshot file.
func TestSingleFrameSnapshotRecovers(t *testing.T) {
	payload, err := os.ReadFile(filepath.Join("testdata", "snapshot.golden"))
	if err != nil {
		t.Fatal(err)
	}
	frame := append(openFrame(nil), payload...)
	if err := sealFrame(frame); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName(9)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, dir, Options{})
	defer l.Close()
	if st := l.Stats(); st.SnapshotSeq != 9 || st.LastSeq != 9 || st.RecoveredSnapshot != 2 {
		t.Fatalf("stats %+v, want the snapshot at seq 9 with 2 entries", st)
	}
}

// unencodable is a policy the record codec refuses (xacml serialises only
// *policy.Policy and *policy.PolicySet): a cheap encode failure.
type unencodable struct{ *policy.Policy }

// TestAppendBatchOneFsync: one multi-update Append is one group — one
// fsync, N records — recovered in order; an unencodable update
// fails its whole call and writes none of its records.
func TestAppendBatchOneFsync(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: -1})
	if err := l.Append(putUpdate("p-first", "res", "v", 1)); err != nil {
		t.Fatal(err)
	}
	before := l.Stats()
	var batch []pap.Update
	for i := 0; i < 6; i++ {
		batch = append(batch, putUpdate(fmt.Sprintf("p-%d", i), fmt.Sprintf("res-%d", i), "v", 1))
	}
	if err := l.Append(batch...); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	n := uint64(len(batch))
	if after.Fsyncs != before.Fsyncs+1 ||
		after.Appends != before.Appends+n || after.LastSeq != before.LastSeq+n {
		t.Fatalf("stats %+v -> %+v, want +1 fsync, +%d appends", before, after, n)
	}

	odd := unencodable{testPolicy("p-odd", "res", "v")}
	bad := []pap.Update{putUpdate("p-ok", "res", "v", 1), {ID: "p-odd", Version: 1, Policy: odd}}
	if err := l.Append(bad...); err == nil {
		t.Fatal("batch with an unencodable record acknowledged")
	}
	if st := l.Stats(); st.LastSeq != after.LastSeq || st.Appends != after.Appends {
		t.Fatalf("rejected batch moved the log: %+v -> %+v", after, st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{SnapshotEvery: -1})
	defer r.Close()
	tail := r.RecoveredTail()
	if len(tail) != 1+len(batch) {
		t.Fatalf("recovered %d records, want %d", len(tail), 1+len(batch))
	}
	for i, u := range batch {
		sameUpdate(t, tail[1+i], u)
	}
}

// TestAppendBatchCrossingSnapshotSnapshotsOnce: a batch that carries the
// log past SnapshotEvery — even several intervals past it — snapshots once,
// after its one fsync, and the snapshot covers the whole batch.
func TestAppendBatchCrossingSnapshotSnapshotsOnce(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: 4})
	for i := 0; i < 2; i++ {
		if err := l.Append(putUpdate(fmt.Sprintf("p-single-%d", i), "res", "v", 1)); err != nil {
			t.Fatal(err)
		}
	}
	var batch []pap.Update
	for i := 0; i < 11; i++ {
		batch = append(batch, putUpdate(fmt.Sprintf("p-%02d", i), fmt.Sprintf("res-%d", i), "v", 1))
	}
	if err := l.Append(batch...); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Snapshots != 1 || st.SnapshotSeq != st.LastSeq || st.LastSeq != 13 || st.Fsyncs != 3 {
		t.Fatalf("stats = %+v, want 1 snapshot covering seq 13 after 3 fsyncs", st)
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{SnapshotEvery: 4})
	defer r.Close()
	if st := r.Stats(); st.RecoveredSnapshot != 13 || st.RecoveredTail != 0 {
		t.Fatalf("recovery = %+v, want 13 snapshot entries and no tail", st)
	}
}

// TestCrashSkipsFinalSnapshot pins the Crash/Close distinction the crash
// tests and benchmarks rely on.
func TestCrashSkipsFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SnapshotEvery: 100})
	for i := 0; i < 3; i++ {
		if err := l.Append(putUpdate(fmt.Sprintf("p-%d", i), "res", "v", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{SnapshotEvery: 100})
	defer r.Close()
	if st := r.Stats(); st.RecoveredTail != 3 || st.RecoveredSnapshot != 0 {
		t.Fatalf("after Crash want a pure WAL tail, got %+v", st)
	}
}
