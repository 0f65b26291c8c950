package store

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/pap"
	"repro/internal/policy"
	"repro/internal/xacml"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenUpdates are the fixtures whose encodings are pinned on disk: the
// on-disk format is a compatibility surface (a node must replay logs an
// older build wrote), so any byte change here must be deliberate and
// version-bumped.
func goldenUpdates() []struct {
	name string
	seq  uint64
	u    pap.Update
} {
	withObligation := policy.NewPolicy("audit-reads").
		Combining(policy.DenyOverrides).
		When(policy.MatchResourceID("res-ledger")).
		Rule(policy.Permit("allow").When(policy.MatchActionID("read")).Build()).
		Obligation(policy.Obligation{
			ID:        "log-access",
			FulfillOn: policy.EffectPermit,
			Assignments: []policy.Assignment{
				{Name: "subject", Expr: policy.Attr(policy.CategorySubject, policy.AttrSubjectID)},
			},
		}).
		Build()
	return []struct {
		name string
		seq  uint64
		u    pap.Update
	}{
		{"record-put", 7, pap.Update{ID: "pol-res-0", Version: 3, Policy: testPolicy("pol-res-0", "res-0", "v3")}},
		{"record-put-obligation", 8, pap.Update{ID: "audit-reads", Version: 1, Policy: withObligation}},
		{"record-delete", 9, pap.Update{ID: "pol-res-0", Deleted: true}},
	}
}

func TestUpdateCodecGolden(t *testing.T) {
	for _, tc := range goldenUpdates() {
		t.Run(tc.name, func(t *testing.T) {
			data, err := MarshalUpdate(tc.seq, tc.u)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to regenerate): %v", err)
			}
			if string(data) != string(want) {
				t.Fatalf("on-disk format drifted from %s:\n got: %s\nwant: %s", path, data, want)
			}
			// And the pinned bytes still decode to the same update.
			seq, u, err := UnmarshalUpdate(want)
			if err != nil {
				t.Fatal(err)
			}
			if seq != tc.seq {
				t.Fatalf("seq = %d, want %d", seq, tc.seq)
			}
			sameUpdate(t, u, tc.u)
		})
	}
}

func TestSnapshotCodecGolden(t *testing.T) {
	state := map[string]*stateEntry{}
	for _, tc := range goldenUpdates() {
		frame, doc, err := encodeRecord(nil, tc.seq, tc.u)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeRecord(frame[frameHeader:]); err != nil {
			t.Fatal(err)
		}
		ent := &stateEntry{ID: tc.u.ID, Versions: tc.u.Version, Deleted: tc.u.Deleted, Policy: doc}
		if tc.u.Deleted {
			ent.Versions = 3
		}
		state[tc.u.ID] = ent
	}
	frame, err := marshalSnapshot(9, state)
	if err != nil {
		t.Fatal(err)
	}
	data := frame[frameHeader:]
	path := filepath.Join("testdata", "snapshot.golden")
	if *updateGolden {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if string(data) != string(want) {
		t.Fatalf("snapshot format drifted from %s:\n got: %s\nwant: %s", path, data, want)
	}
	doc, err := unmarshalSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Seq != 9 || len(doc.Entries) != 2 {
		t.Fatalf("decoded snapshot = seq %d, %d entries", doc.Seq, len(doc.Entries))
	}
}

func TestCodecRejectsUnknownVersionAndOp(t *testing.T) {
	if _, _, err := UnmarshalUpdate([]byte(`{"v":99,"seq":1,"op":"put","id":"x"}`)); err == nil {
		t.Fatal("future format version accepted")
	}
	if _, _, err := UnmarshalUpdate([]byte(`{"v":1,"seq":1,"op":"merge","id":"x"}`)); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := unmarshalSnapshot([]byte(`{"v":2,"seq":1,"entries":[]}`)); err == nil {
		t.Fatal("future snapshot version accepted")
	}
}

// FuzzUpdateCodec holds the hand-framed encoders to their reference:
// record and snapshot payloads must be the bytes json.Marshal makes of
// the record and snapshotDoc structs, with the policy document the
// compacted xacml.MarshalJSON, and must round-trip through
// UnmarshalUpdate and unmarshalSnapshot. The seed IDs carry every byte
// class encoding/json escapes or replaces.
func FuzzUpdateCodec(f *testing.F) {
	for _, id := range []string{
		"pol-res-0", "a<b>c&d", `q"uote`, `back\slash`, "nul\x00", "ctl\x01\x08\x0c\x1f\x7f",
		"tab\tnl\nret\r", "ls\u2028ps\u2029", "bad\xffutf8", "cut\xe2\x80", "π-日本", "",
	} {
		f.Add(uint64(7), id, 3, false)
		f.Add(uint64(1)<<63, id, 1, true)
	}
	f.Add(uint64(1), "p-zero", 0, false)
	f.Add(uint64(1), "p-neg", -5, false)
	f.Add(^uint64(0), "p-max", int(^uint(0)>>1), false)
	f.Fuzz(func(t *testing.T, seq uint64, id string, version int, deleted bool) {
		u := pap.Update{ID: id, Deleted: deleted}
		if !deleted {
			u.Version = version
			u.Policy = testPolicy(id, "res-"+id, id)
		}
		prefix := []byte("prefix")
		frame, doc, err := encodeRecord(prefix, seq, u)
		if id == "" || (!deleted && version < 1) {
			if err == nil || string(frame) != "prefix" {
				t.Fatalf("invalid update %+v encoded: %q, %v", u, frame, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		payloads, _, torn := scanFrames(frame[len(prefix):])
		if torn || len(payloads) != 1 {
			t.Fatalf("record frame: %d payloads, torn %v", len(payloads), torn)
		}
		rec := record{V: FormatVersion, Seq: seq, ID: id, Op: opDelete}
		if !deleted {
			indented, err := xacml.MarshalJSON(u.Policy)
			if err != nil {
				t.Fatal(err)
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, indented); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(doc, compact.Bytes()) {
				t.Fatalf("policy document:\n got %s\nwant %s", doc, compact.Bytes())
			}
			rec.Op, rec.Version, rec.Policy = opPut, version, compact.Bytes()
		}
		want, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payloads[0], want) {
			t.Fatalf("record:\n got %s\nwant %s", payloads[0], want)
		}
		var wantID string // invalid UTF-8 decodes as U+FFFD
		if err := json.Unmarshal(mustMarshal(t, id), &wantID); err != nil {
			t.Fatal(err)
		}
		gotSeq, got, err := UnmarshalUpdate(payloads[0])
		if err != nil {
			t.Fatal(err)
		}
		if gotSeq != seq || got.ID != wantID || got.Deleted != deleted || got.Version != u.Version || (got.Policy == nil) != deleted {
			t.Fatalf("record round-trip: seq %d %+v, want seq %d %+v (id %q)", gotSeq, got, seq, u, wantID)
		}

		versions := version
		if deleted {
			versions = 1
		}
		state := map[string]*stateEntry{
			id:      {ID: id, Versions: versions, Deleted: deleted, Policy: doc},
			"p-mid": {ID: "p-mid", Versions: 2, Policy: []byte(`{"policy":{"id":"p-mid"}}`)},
		}
		snap, err := marshalSnapshot(seq, state)
		if err != nil {
			t.Fatal(err)
		}
		payloads, _, torn = scanFrames(snap)
		if torn || len(payloads) != 1 {
			t.Fatalf("snapshot frame: %d payloads, torn %v", len(payloads), torn)
		}
		ref := snapshotDoc{V: FormatVersion, Seq: seq}
		for _, ent := range state {
			ref.Entries = append(ref.Entries, *ent)
		}
		sort.Slice(ref.Entries, func(i, j int) bool { return ref.Entries[i].ID < ref.Entries[j].ID })
		want = mustMarshal(t, &ref)
		if !bytes.Equal(payloads[0], want) {
			t.Fatalf("snapshot:\n got %s\nwant %s", payloads[0], want)
		}
		back, err := unmarshalSnapshot(payloads[0])
		if err != nil {
			t.Fatal(err)
		}
		if back.Seq != seq || len(back.Entries) != len(ref.Entries) {
			t.Fatalf("snapshot round-trip: seq %d, %d entries", back.Seq, len(back.Entries))
		}
		for i, ent := range back.Entries {
			sent := ref.Entries[i]
			if sent.ID == id {
				sent.ID = wantID
			}
			if ent.ID != sent.ID || ent.Versions != sent.Versions || ent.Deleted != sent.Deleted || !bytes.Equal(ent.Policy, sent.Policy) {
				t.Fatalf("snapshot entry %d round-trip: %+v, want %+v", i, ent, sent)
			}
		}
	})
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
