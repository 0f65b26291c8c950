package wire

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
)

// Batch framing: a cluster deployment answers many authorisation decision
// queries per envelope (the pdp:decide-batch action), so one envelope body
// must carry several XACML documents. The framing is a JSON array of the
// raw documents, each a base64 string; order is positional — reply
// document i answers request document i.

// EncodeBodies frames multiple message bodies into one envelope body.
func EncodeBodies(bodies [][]byte) ([]byte, error) {
	if bodies == nil {
		return []byte("null"), nil
	}
	n := 2
	for _, b := range bodies {
		n += base64.StdEncoding.EncodedLen(len(b)) + 4
	}
	out := append(make([]byte, 0, n), '[')
	for i, b := range bodies {
		if i > 0 {
			out = append(out, ',')
		}
		if b == nil {
			out = append(out, "null"...)
			continue
		}
		out = append(appendBase64(append(out, '"'), b), '"')
	}
	return append(out, ']'), nil
}

// DecodeBodies unpacks an envelope body framed by EncodeBodies. The
// bodies are sub-slices of one buffer. Only the frame EncodeBodies writes
// is read, modulo JSON white space: string escapes are not accepted.
func DecodeBodies(data []byte) ([][]byte, error) {
	bodies, err := decodeBodies(data)
	if err != nil {
		return nil, fmt.Errorf("wire: decode batch: %w", err)
	}
	return bodies, nil
}

var errBadFrame = errors.New("not a JSON array of base64 strings")

func decodeBodies(data []byte) ([][]byte, error) {
	data = bytes.Trim(data, " \t\r\n")
	if string(data) == "null" {
		return nil, nil
	}
	if len(data) < 2 || data[0] != '[' || data[len(data)-1] != ']' {
		return nil, errBadFrame
	}
	bodies := make([][]byte, 0, bytes.Count(data, []byte{'"'})/2)
	items := bytes.Trim(data[1:len(data)-1], " \t\r\n")
	// Every body decodes into this one buffer: base64 never grows.
	backing := make([]byte, base64.StdEncoding.DecodedLen(len(items)))
	for len(items) > 0 {
		switch {
		case items[0] == '"':
			end := bytes.IndexByte(items[1:], '"')
			if end < 0 {
				return nil, errBadFrame
			}
			text := items[1 : 1+end]
			// The base64 decoder skips line ends, which JSON forbids
			// inside a string; it rejects everything else JSON would.
			if bytes.IndexByte(text, '\\') >= 0 || bytes.IndexByte(text, '\n') >= 0 || bytes.IndexByte(text, '\r') >= 0 {
				return nil, errBadFrame
			}
			n, err := base64.StdEncoding.Decode(backing, text)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, backing[:n:n])
			backing = backing[n:]
			items = items[end+2:]
		case bytes.HasPrefix(items, []byte("null")):
			bodies = append(bodies, nil)
			items = items[4:]
		default:
			return nil, errBadFrame
		}
		// What follows an item is the end of the array or a comma and
		// another item.
		if items = bytes.TrimLeft(items, " \t\r\n"); len(items) == 0 {
			break
		}
		if items[0] != ',' {
			return nil, errBadFrame
		}
		if items = bytes.TrimLeft(items[1:], " \t\r\n"); len(items) == 0 {
			return nil, errBadFrame
		}
	}
	return bodies, nil
}
