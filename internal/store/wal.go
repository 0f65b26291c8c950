package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Frame layout: one magic byte, little-endian uint32 payload length,
// little-endian CRC-32C of the payload, then the payload. The CRC detects
// torn tail writes (a crash mid-append) and bit rot; the magic byte makes
// "the file ends in zero padding" distinguishable from a frame header at
// a glance.
const (
	frameMagic  = 0xA5
	frameHeader = 1 + 4 + 4
	// maxFramePayload bounds a single record; a length field beyond it is
	// treated as corruption, not an allocation request.
	maxFramePayload = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// openFrame appends a blank frame header to dst; the caller appends the
// payload after it and seals the frame with sealFrame. Writers build a
// record or snapshot in place this way, with no payload buffer to copy.
func openFrame(dst []byte) []byte {
	var hdr [frameHeader]byte
	return append(dst, hdr[:]...)
}

// sealFrame fills in the header of frame, a buffer that holds one opened
// frame and its whole payload. A payload beyond the frame bound is
// refused: the recovery scanner would reject it as corruption.
func sealFrame(frame []byte) error {
	payload := frame[frameHeader:]
	if len(payload) > maxFramePayload {
		return fmt.Errorf("%d bytes exceed the %d-byte frame bound", len(payload), maxFramePayload)
	}
	frame[0] = frameMagic
	binary.LittleEndian.PutUint32(frame[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[5:9], crc32.Checksum(payload, castagnoli))
	return nil
}

// scanFrames walks every whole, checksummed frame in data. It returns the
// payloads, the offset just past the last valid frame, and whether
// trailing bytes after that offset had to be discarded — a torn or
// corrupt tail. Nothing after the first bad byte is trusted: a WAL is
// append-only, so a valid-looking frame beyond garbage can only be a
// misparse.
func scanFrames(data []byte) (payloads [][]byte, goodLen int64, torn bool) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeader || rest[0] != frameMagic {
			return payloads, int64(off), true
		}
		n := int(binary.LittleEndian.Uint32(rest[1:5]))
		if n > maxFramePayload || len(rest) < frameHeader+n {
			return payloads, int64(off), true
		}
		payload := rest[frameHeader : frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[5:9]) {
			return payloads, int64(off), true
		}
		payloads = append(payloads, payload)
		off += frameHeader + n
	}
	return payloads, int64(off), false
}

// Segment and snapshot file naming: the hex number is the first sequence
// number a WAL segment may contain, or the last sequence number a
// snapshot covers.
const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

func segName(startSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, startSeq, segSuffix)
}

func snapName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix)
}

func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// scanDir inventories a data directory: sorted WAL segment start
// sequences, sorted snapshot sequences, with leftover temp files from an
// interrupted snapshot removed.
func scanDir(dir string) (segs, snaps []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseSeqName(name, segPrefix, segSuffix); ok {
			segs = append(segs, seq)
			continue
		}
		if seq, ok := parseSeqName(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

// syncDir fsyncs the directory so a just-created or just-renamed file's
// directory entry is durable. Best-effort on filesystems that reject
// directory fsync.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		_ = f.Close()
	}
}
