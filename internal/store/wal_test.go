package store

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// appendFrame frames payload onto dst the way the log's writers do.
func appendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(openFrame(dst), payload...)
	if err := sealFrame(dst[start:]); err != nil {
		panic(err)
	}
	return dst
}

// FuzzScanFrames drives the WAL frame reader with arbitrary bytes. The
// oracle: it never panics; the good prefix it reports is a prefix of the
// input, marked torn exactly when bytes follow it; re-framing the returned
// payloads reproduces that prefix byte for byte; and scanning the prefix
// alone returns the same payloads, untorn.
func FuzzScanFrames(f *testing.F) {
	one := appendFrame(nil, []byte("put p-1 v1"))
	three := appendFrame(appendFrame(appendFrame(nil, []byte("a")), nil), []byte("third payload"))

	flippedCRC := bytes.Clone(one)
	flippedCRC[5] ^= 0xFF
	badMagic := bytes.Clone(one)
	badMagic[0] = 0
	oversized := bytes.Clone(one)
	binary.LittleEndian.PutUint32(oversized[1:5], maxFramePayload+1)

	for _, seed := range [][]byte{
		{},
		one,
		three,
		one[:frameHeader-4],                   // torn header
		three[:len(three)-1],                  // torn payload
		flippedCRC,                            // bit rot in the checksum
		badMagic,                              // not a frame header
		append(bytes.Clone(one), badMagic...), // good frame, then garbage
		oversized,                             // length past the frame bound
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, goodLen, torn := scanFrames(data)
		if goodLen < 0 || goodLen > int64(len(data)) {
			t.Fatalf("goodLen %d outside [0, %d]", goodLen, len(data))
		}
		if want := goodLen < int64(len(data)); torn != want {
			t.Fatalf("torn = %v with goodLen %d of %d bytes", torn, goodLen, len(data))
		}
		var reframed []byte
		for _, p := range payloads {
			reframed = appendFrame(reframed, p)
		}
		if !bytes.Equal(reframed, data[:goodLen]) {
			t.Fatalf("re-framed payloads differ from the %d-byte good prefix", goodLen)
		}
		again, againLen, againTorn := scanFrames(data[:goodLen])
		if againTorn || againLen != goodLen || len(again) != len(payloads) {
			t.Fatalf("rescan of good prefix: %d payloads, %d bytes, torn %v; want %d, %d, false",
				len(again), againLen, againTorn, len(payloads), goodLen)
		}
		for i := range again {
			if !bytes.Equal(again[i], payloads[i]) {
				t.Fatalf("rescan payload %d differs", i)
			}
		}
	})
}
