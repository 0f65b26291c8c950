package wire

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"slices"
)

// Batch framing: a cluster deployment answers many authorisation decision
// queries per envelope (the pdp:decide-batch action), so one envelope body
// must carry several XACML documents. The framing is a JSON array of the
// raw documents, each a base64 string; order is positional — reply
// document i answers request document i.

// EncodeBodies frames multiple message bodies into one envelope body.
func EncodeBodies(bodies [][]byte) ([]byte, error) {
	n := 4
	for _, b := range bodies {
		n += base64.StdEncoding.EncodedLen(len(b)) + 4
	}
	return AppendBodies(make([]byte, 0, n), bodies), nil
}

// AppendBodies appends the frame EncodeBodies writes to dst.
func AppendBodies(dst []byte, bodies [][]byte) []byte {
	if bodies == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, b := range bodies {
		if i > 0 {
			dst = append(dst, ',')
		}
		if b == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(appendBase64(append(dst, '"'), b), '"')
	}
	return append(dst, ']')
}

// DecodeBodies unpacks an envelope body framed by EncodeBodies. The
// bodies are sub-slices of one buffer. Only the frame EncodeBodies writes
// is read, modulo JSON white space: string escapes are not accepted.
func DecodeBodies(data []byte) ([][]byte, error) {
	var buf []byte
	return DecodeBodiesInto(&buf, data)
}

// DecodeBodiesInto is DecodeBodies decoding into *buf's storage, grown as
// needed: the bodies are valid until *buf is reused.
func DecodeBodiesInto(buf *[]byte, data []byte) ([][]byte, error) {
	bodies, backing, err := decodeBodies(*buf, data)
	*buf = backing
	if err != nil {
		return nil, fmt.Errorf("wire: decode batch: %w", err)
	}
	return bodies, nil
}

var errBadFrame = errors.New("not a JSON array of base64 strings")

// decodeBodies decodes the frame into backing's storage and returns the
// bodies and the (possibly grown) backing.
func decodeBodies(backing, data []byte) ([][]byte, []byte, error) {
	data = bytes.Trim(data, " \t\r\n")
	if string(data) == "null" {
		return nil, backing, nil
	}
	if len(data) < 2 || data[0] != '[' || data[len(data)-1] != ']' {
		return nil, backing, errBadFrame
	}
	bodies := make([][]byte, 0, bytes.Count(data, []byte{'"'})/2)
	items := bytes.Trim(data[1:len(data)-1], " \t\r\n")
	// Every body decodes into this one buffer: base64 never grows. An
	// empty body is a zero-length slice of it, never nil.
	n := base64.StdEncoding.DecodedLen(len(items))
	backing = slices.Grow(backing[:0], n)[:n]
	if backing == nil {
		backing = []byte{}
	}
	free := backing
	for len(items) > 0 {
		switch {
		case items[0] == '"':
			end := bytes.IndexByte(items[1:], '"')
			if end < 0 {
				return nil, backing, errBadFrame
			}
			text := items[1 : 1+end]
			// The base64 decoder skips line ends, which JSON forbids
			// inside a string; it rejects everything else JSON would.
			if bytes.IndexByte(text, '\\') >= 0 || bytes.IndexByte(text, '\n') >= 0 || bytes.IndexByte(text, '\r') >= 0 {
				return nil, backing, errBadFrame
			}
			n, err := base64.StdEncoding.Decode(free, text)
			if err != nil {
				return nil, backing, err
			}
			bodies = append(bodies, free[:n:n])
			free = free[n:]
			items = items[end+2:]
		case bytes.HasPrefix(items, []byte("null")):
			bodies = append(bodies, nil)
			items = items[4:]
		default:
			return nil, backing, errBadFrame
		}
		// What follows an item is the end of the array or a comma and
		// another item.
		if items = bytes.TrimLeft(items, " \t\r\n"); len(items) == 0 {
			break
		}
		if items[0] != ',' {
			return nil, backing, errBadFrame
		}
		if items = bytes.TrimLeft(items[1:], " \t\r\n"); len(items) == 0 {
			return nil, backing, errBadFrame
		}
	}
	return bodies, backing, nil
}
