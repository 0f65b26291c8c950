package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"unicode/utf8"

	"repro/internal/pap"
	"repro/internal/policy"
	"repro/internal/xacml"
)

// FormatVersion tags every on-disk record and snapshot. Decoders accept
// exactly the versions they understand, so a future format change bumps
// the number instead of silently misreading old state. The golden files
// under testdata/ pin the v1 encoding.
const FormatVersion = 1

const (
	opPut    = "put"
	opDelete = "delete"
)

// record is the WAL payload: one pap.Update with its log sequence number.
// The policy document is the xacml compact JSON encoding, the one
// serialisation of policy trees the system already exchanges over the
// wire; it is deterministic (struct fields, no maps), which the
// golden-file tests rely on. decodeRecord reads this struct; encodeRecord
// writes the same fields by hand, in the same order, so the bytes are
// those json.Marshal makes of it.
type record struct {
	V       int             `json:"v"`
	Seq     uint64          `json:"seq"`
	Op      string          `json:"op"`
	ID      string          `json:"id"`
	Version int             `json:"version,omitempty"`
	Policy  json.RawMessage `json:"policy,omitempty"`
}

// MarshalUpdate encodes one pap.Update as a versioned WAL payload.
func MarshalUpdate(seq uint64, u pap.Update) ([]byte, error) {
	frame, _, err := encodeRecord(nil, seq, u)
	if err != nil {
		return nil, err
	}
	return frame[frameHeader:], nil
}

// encodeRecord appends u's record to dst as one whole WAL frame. The
// policy document comes out of one compact encoding pass and is spliced
// in as is, never re-validated or re-compacted; encodeRecord also
// returns it, so the log keeps it as its materialised state without
// re-marshalling. On error dst is returned unchanged.
func encodeRecord(dst []byte, seq uint64, u pap.Update) ([]byte, []byte, error) {
	if u.ID == "" {
		return dst, nil, errors.New("store: update with empty ID")
	}
	op, doc := opDelete, []byte(nil)
	if !u.Deleted {
		op = opPut
		if u.Policy == nil {
			return dst, nil, fmt.Errorf("store: update %s has no policy", u.ID)
		}
		// A snapshot entry needs a version of at least 1 to decode; a
		// put without one must never be acknowledged.
		if u.Version < 1 {
			return dst, nil, fmt.Errorf("store: update %s has version %d, a put needs 1 or more", u.ID, u.Version)
		}
		var err error
		if doc, err = xacml.MarshalCompactJSON(u.Policy); err != nil {
			return dst, nil, err
		}
	}
	start := len(dst)
	out := append(openFrame(dst), `{"v":`...)
	out = strconv.AppendInt(out, FormatVersion, 10)
	out = append(out, `,"seq":`...)
	out = strconv.AppendUint(out, seq, 10)
	out = append(out, `,"op":"`...)
	out = append(out, op...)
	out = append(out, `","id":`...)
	out = appendString(out, u.ID)
	if !u.Deleted {
		out = append(out, `,"version":`...)
		out = strconv.AppendInt(out, int64(u.Version), 10)
		out = append(out, `,"policy":`...)
		out = append(out, doc...)
	}
	out = append(out, '}')
	// Enforce the frame bound at write time: a payload the recovery
	// scanner would reject as corrupt must never be acknowledged in the
	// first place.
	if err := sealFrame(out[start:]); err != nil {
		return dst, nil, fmt.Errorf("store: record %s: %w", u.ID, err)
	}
	return out, doc, nil
}

// appendString appends s quoted as encoding/json quotes a string. Plain
// printable ASCII, which every policy ID in practice is, is copied as
// is; any string holding a byte that encoding/json escapes or replaces
// (quote, backslash, control bytes, the HTML-sensitive <, > and &, and
// non-ASCII, which covers U+2028, U+2029 and invalid UTF-8) goes through
// json.Marshal itself, so the bytes never differ.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// UnmarshalUpdate decodes a WAL payload back into its sequence number and
// pap.Update, inverting MarshalUpdate.
func UnmarshalUpdate(data []byte) (uint64, pap.Update, error) {
	rec, u, err := decodeRecord(data)
	if err != nil {
		return 0, pap.Update{}, err
	}
	return rec.Seq, u, nil
}

func decodeRecord(data []byte) (record, pap.Update, error) {
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, pap.Update{}, fmt.Errorf("store: decode record: %w", err)
	}
	if rec.V != FormatVersion {
		return rec, pap.Update{}, fmt.Errorf("store: record format v%d unsupported (have v%d)", rec.V, FormatVersion)
	}
	if rec.ID == "" {
		return rec, pap.Update{}, errors.New("store: record with empty ID")
	}
	u := pap.Update{ID: rec.ID}
	switch rec.Op {
	case opDelete:
		u.Deleted = true
	case opPut:
		u.Version = rec.Version
		e, err := unmarshalPolicy(rec.Policy)
		if err != nil {
			return rec, pap.Update{}, fmt.Errorf("store: record %s: %w", rec.ID, err)
		}
		u.Policy = e
	default:
		return rec, pap.Update{}, fmt.Errorf("store: record op %q unknown", rec.Op)
	}
	return rec, u, nil
}

func unmarshalPolicy(doc json.RawMessage) (policy.Evaluable, error) {
	if len(doc) == 0 {
		return nil, errors.New("record has no policy document")
	}
	return xacml.UnmarshalJSON(doc)
}

// stateEntry is the materialised latest state of one policy ID, the unit
// a snapshot persists: the current version counter, the tombstone flag,
// and (for live policies) the latest policy document.
type stateEntry struct {
	ID       string          `json:"id"`
	Versions int             `json:"versions"`
	Deleted  bool            `json:"deleted,omitempty"`
	Policy   json.RawMessage `json:"policy,omitempty"`
}

// snapshotDoc is one snapshot frame's payload: the state as of sequence
// number Seq, entries sorted by ID for deterministic bytes. A snapshot
// that fits one frame omits Parts; a larger one is split into Parts frames
// that each repeat V, Seq and Parts over the next run of entries.
// unmarshalSnapshot reads this struct; marshalSnapshot writes the bytes
// json.Marshal makes of it by hand.
type snapshotDoc struct {
	V       int          `json:"v"`
	Seq     uint64       `json:"seq"`
	Parts   int          `json:"parts,omitempty"`
	Entries []stateEntry `json:"entries"`
}

// snapshotFrameEntries bounds the entries of one snapshot frame: the frame
// bound less the longest head and tail a frame can carry.
const snapshotFrameEntries = maxFramePayload - len(`{"v":1,"seq":18446744073709551615,"parts":9223372036854775807,"entries":[]}`)

// marshalSnapshot encodes the state as of seq as a snapshot: its frames,
// back to back, as few as the frame bound allows. Each entry's policy
// document is spliced in as the state holds it: the compact bytes a record
// carried, never re-compacted. An entry too large for a frame of its own
// fails the snapshot rather than writing it unreadable.
func marshalSnapshot(seq uint64, state map[string]*stateEntry) ([]byte, error) {
	ents := make([]*stateEntry, 0, len(state))
	size := 0
	for _, ent := range state {
		ents = append(ents, ent)
		size += 64 + len(ent.ID) + len(ent.Policy)
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].ID < ents[j].ID })
	// Plan the frames: ends[k] is one past frame k's last entry.
	var ends []int
	first, used := 0, 0
	for i, ent := range ents {
		n := entrySize(ent)
		if i > first && used+1+n > snapshotFrameEntries {
			ends = append(ends, i)
			first, used = i, 0
		}
		if i > first {
			used++ // the separating comma
		}
		used += n
	}
	ends = append(ends, len(ents))

	out := make([]byte, 0, size+len(ends)*(frameHeader+64))
	first = 0
	for _, end := range ends {
		frame := len(out)
		out = append(openFrame(out), `{"v":`...)
		out = strconv.AppendInt(out, FormatVersion, 10)
		out = append(out, `,"seq":`...)
		out = strconv.AppendUint(out, seq, 10)
		if len(ends) > 1 {
			out = append(out, `,"parts":`...)
			out = strconv.AppendInt(out, int64(len(ends)), 10)
		}
		out = append(out, `,"entries":[`...)
		for i, ent := range ents[first:end] {
			if i > 0 {
				out = append(out, ',')
			}
			out = appendEntryHead(out, ent)
			out = append(out, ent.Policy...)
			out = append(out, '}')
		}
		out = append(out, "]}"...)
		if err := sealFrame(out[frame:]); err != nil {
			return nil, fmt.Errorf("store: snapshot: %w", err)
		}
		first = end
	}
	return out, nil
}

// entrySize is the length of ent's encoding in a snapshot frame.
func entrySize(ent *stateEntry) int {
	var head [64]byte
	return len(appendEntryHead(head[:0], ent)) + len(ent.Policy) + 1
}

// appendEntryHead appends a snapshot entry's encoding up to its policy
// document; the document and a closing brace complete it.
func appendEntryHead(dst []byte, ent *stateEntry) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendString(dst, ent.ID)
	dst = append(dst, `,"versions":`...)
	dst = strconv.AppendInt(dst, int64(ent.Versions), 10)
	if ent.Deleted {
		dst = append(dst, `,"deleted":true`...)
	}
	if len(ent.Policy) > 0 {
		dst = append(dst, `,"policy":`...)
	}
	return dst
}

// unmarshalSnapshotFile decodes a snapshot file, its frames joined into one
// document covering seq. A torn frame, a frame missing from a multi-frame
// snapshot, or a frame naming another seq or frame count refuses the file.
func unmarshalSnapshotFile(data []byte, seq uint64) (*snapshotDoc, error) {
	payloads, _, torn := scanFrames(data)
	if torn || len(payloads) == 0 {
		return nil, errors.New("malformed frame")
	}
	var whole *snapshotDoc
	for _, payload := range payloads {
		doc, err := unmarshalSnapshot(payload)
		if err != nil {
			return nil, err
		}
		if doc.Seq != seq {
			return nil, fmt.Errorf("covers seq %d, name says %d", doc.Seq, seq)
		}
		if whole == nil {
			whole = doc
			continue
		}
		if doc.Parts != whole.Parts {
			return nil, fmt.Errorf("frame of %d parts in a snapshot of %d", doc.Parts, whole.Parts)
		}
		whole.Entries = append(whole.Entries, doc.Entries...)
	}
	if parts := max(whole.Parts, 1); len(payloads) != parts {
		return nil, fmt.Errorf("%d of %d frames", len(payloads), parts)
	}
	return whole, nil
}

func unmarshalSnapshot(data []byte) (*snapshotDoc, error) {
	var doc snapshotDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("store: decode snapshot: %w", err)
	}
	if doc.V != FormatVersion {
		return nil, fmt.Errorf("store: snapshot format v%d unsupported (have v%d)", doc.V, FormatVersion)
	}
	for i := range doc.Entries {
		ent := &doc.Entries[i]
		if ent.ID == "" || ent.Versions < 1 {
			return nil, fmt.Errorf("store: snapshot entry %d malformed", i)
		}
		if !ent.Deleted && len(ent.Policy) == 0 {
			return nil, fmt.Errorf("store: snapshot entry %s: live entry without a policy", ent.ID)
		}
	}
	return &doc, nil
}
