// Package xmlscan is the XML reader and writer of the PEP↔PDP message
// path: a pull scanner over a []byte that hands out element names,
// attribute values and character data as sub-slices of the input, and
// append-style escaping for the encoders (escape.go).
//
// It reads the subset of XML 1.0 the message formats need — elements,
// attributes, character data, CDATA sections, the five predefined and
// numeric character references, comments, processing instructions and an
// XML declaration — and matches elements and attributes by local name,
// ignoring namespace prefixes, as encoding/xml does for untagged fields.
// It is deliberately never more lenient than encoding/xml's strict mode:
// every document it accepts, encoding/xml accepts with the same names and
// text (entity references resolved, line ends normalised to \n). It is
// stricter where leniency has no use on this path: DOCTYPE and other
// directives, non-ASCII names, text outside the root element, content
// after it, nesting beyond MaxDepth and surrogate character references
// are all rejected.
package xmlscan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// MaxDepth bounds element nesting; the message formats need five levels.
const MaxDepth = 32

type event uint8

const (
	evEOF event = iota
	evStart
	evEnd
	evText
)

// Scanner reads one document. Slices it returns alias the input unless
// the text held a character reference or a carriage return; the caller
// must copy what it keeps beyond the input's lifetime.
type Scanner struct {
	data   []byte
	pos    int
	depth  int
	open   [MaxDepth]int // offset of each open element's qualified name
	rooted bool          // the root element has been opened
	empty  bool          // the last start tag was self-closing: its end is due
	name   []byte        // local name of the last start or end tag
	attrs  []byte        // attribute region of the last start tag, validated
	text   []byte        // the last character data, references resolved
}

// New returns a scanner positioned before the document's prolog.
func New(data []byte) Scanner { return Scanner{data: data} }

func (s *Scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("xmlscan: offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// Root advances to the root element and checks its local name.
func (s *Scanner) Root(name string) error {
	if _, err := s.next(); err != nil {
		return err
	}
	if string(s.name) != name {
		return s.errorf("expected root element <%s>, have <%s>", name, s.name)
	}
	return nil
}

// Children calls visit with the local name of each child element of the
// current one, positioned on its start tag, until the current element
// ends. visit consumes the child: with Text, Skip or Children.
func (s *Scanner) Children(visit func(name []byte) error) error {
	for {
		switch ev, err := s.next(); {
		case err != nil:
			return err
		case ev == evEnd:
			return nil
		case ev == evStart:
			if err := visit(s.name); err != nil {
				return err
			}
		}
	}
}

// Text consumes the current element and returns its character data: the
// text directly inside it, concatenated, with child elements skipped.
func (s *Scanner) Text() ([]byte, error) {
	var text []byte
	segments := 0
	for inner := s.depth; ; {
		ev, err := s.next()
		switch {
		case err != nil:
			return nil, err
		case ev == evEnd && s.depth < inner:
			return text, nil
		case ev == evText && s.depth == inner:
			switch segments {
			case 0:
				text = s.text
			case 1:
				text = append(append(make([]byte, 0, len(text)+len(s.text)), text...), s.text...)
			default:
				text = append(text, s.text...)
			}
			segments++
		}
	}
}

// Skip consumes the current element and everything inside it.
func (s *Scanner) Skip() error {
	for inner := s.depth; ; {
		ev, err := s.next()
		if err != nil {
			return err
		}
		if ev == evEnd && s.depth < inner {
			return nil
		}
	}
}

// Attr returns the value of the current start tag's attribute with the
// given local name; as in encoding/xml the last of several wins.
func (s *Scanner) Attr(name string) (value []byte, ok bool) {
	for b := s.attrs; ; {
		local, raw, rest, more := nextAttr(b)
		if !more {
			break
		}
		if string(local) == name {
			value, ok = raw, true
		}
		b = rest
	}
	if ok && (bytes.IndexByte(value, '&') >= 0 || bytes.IndexByte(value, '\r') >= 0) {
		value = resolve(value, false)
	}
	return value, ok
}

// next advances to the next start tag, end tag or run of character data.
// Comments and processing instructions are checked and skipped. Outside
// the root element only white space may appear; once the root has ended,
// only the end of input is acceptable.
func (s *Scanner) next() (event, error) {
	if s.empty {
		s.empty = false
		return s.end()
	}
	for {
		rest := s.data[s.pos:]
		switch {
		case len(rest) == 0:
			if s.depth > 0 || !s.rooted {
				return evEOF, s.errorf("unexpected end of input")
			}
			return evEOF, nil
		case rest[0] != '<':
			n := bytes.IndexByte(rest, '<')
			if n < 0 {
				n = len(rest)
			}
			if s.depth == 0 {
				if skipSpace(rest, 0) < n {
					return evEOF, s.errorf("character data outside the root element")
				}
				s.pos += n
				continue
			}
			if i := bytes.IndexByte(rest[:n], ']'); i >= 0 && bytes.Contains(rest[i:n], cdataEnd) {
				return evEOF, s.errorf("unescaped ]]> in character data")
			}
			if err := s.setText(rest[:n], false); err != nil {
				return evEOF, err
			}
			s.pos += n
			return evText, nil
		case len(rest) == 1:
			return evEOF, s.errorf("unexpected end of input")
		case rest[1] == '/':
			return s.endTag(rest)
		case rest[1] == '?':
			n, err := s.procInst(rest)
			if err != nil {
				return evEOF, err
			}
			s.pos += n
		case rest[1] != '!':
			return s.startTag(rest)
		case bytes.HasPrefix(rest, commentStart):
			n := bytes.Index(rest[len(commentStart):], []byte("--"))
			if n < 0 {
				return evEOF, s.errorf("unterminated comment")
			}
			n += len(commentStart) + 2
			if n >= len(rest) || rest[n] != '>' {
				return evEOF, s.errorf(`"--" inside a comment`)
			}
			s.pos += n + 1
		case bytes.HasPrefix(rest, cdataStart):
			n := bytes.Index(rest, cdataEnd)
			if n < 0 || s.depth == 0 {
				return evEOF, s.errorf("CDATA section unterminated or outside the root element")
			}
			if err := s.setText(rest[len(cdataStart):n], true); err != nil {
				return evEOF, err
			}
			s.pos += n + len(cdataEnd)
			return evText, nil
		default:
			return evEOF, s.errorf("directives are not accepted")
		}
	}
}

var (
	commentStart = []byte("<!--")
	cdataStart   = []byte("<![CDATA[")
	cdataEnd     = []byte("]]>")
)

// setText checks a run of character data and stores it with references
// resolved and line ends normalised.
func (s *Scanner) setText(run []byte, cdata bool) error {
	rewrite, err := checkText(run, cdata)
	if err != nil {
		return s.errorf("%v", err)
	}
	if rewrite {
		run = resolve(run, cdata)
	}
	s.text = run
	return nil
}

// procInst checks the processing instruction rest begins with and returns
// its length. An XML declaration may only state version 1.0 and UTF-8.
func (s *Scanner) procInst(rest []byte) (int, error) {
	n := 2
	for n < len(rest) && isNameByte(rest[n]) {
		n++
	}
	if n == 2 || !isNameStart(rest[2]) || n < len(rest) && rest[n] >= utf8.RuneSelf {
		return 0, s.errorf("expected an ASCII target name after <?")
	}
	end := bytes.Index(rest[n:], []byte("?>"))
	if end < 0 {
		return 0, s.errorf("unterminated processing instruction")
	}
	if string(rest[2:n]) == "xml" {
		decl := rest[n : n+end]
		if !declares(decl, "version=", func(v []byte) bool { return string(v) == "1.0" }) ||
			!declares(decl, "encoding=", func(v []byte) bool { return bytes.EqualFold(v, []byte("utf-8")) }) {
			return 0, s.errorf("unsupported XML declaration")
		}
	}
	return n + end + 2, nil
}

// declares reports whether every quoted value the pseudo-attribute param
// has in an XML declaration satisfies ok. encoding/xml looks at one of
// them; checking all is never more lenient.
func declares(decl []byte, param string, ok func([]byte) bool) bool {
	for {
		i := bytes.Index(decl, []byte(param))
		if i < 0 || i+len(param) == len(decl) {
			return true
		}
		decl = decl[i+len(param):]
		if q := decl[0]; q == '"' || q == '\'' {
			end := bytes.IndexByte(decl[1:], q)
			if end < 0 || !ok(decl[1:1+end]) {
				return false
			}
			decl = decl[end+2:]
		}
	}
}

func (s *Scanner) startTag(rest []byte) (event, error) {
	n, local, ok := scanName(rest, 1)
	switch {
	case !ok:
		return evEOF, s.errorf("expected element name after <")
	case s.rooted && s.depth == 0:
		return evEOF, s.errorf("content after the root element")
	case s.depth == MaxDepth:
		return evEOF, s.errorf("elements nested deeper than %d", MaxDepth)
	}
	attrs := n
	for {
		n = skipSpace(rest, n)
		if n >= len(rest) {
			return evEOF, s.errorf("unexpected end of input in <%s>", local)
		}
		if rest[n] == '>' || rest[n] == '/' {
			break
		}
		name, value, after, more := nextAttr(rest[n:])
		if !more {
			return evEOF, s.errorf(`expected name="value" in <%s>`, local)
		}
		if bytes.IndexByte(value, '<') >= 0 {
			return evEOF, s.errorf("unescaped < in attribute %s", name)
		}
		if _, err := checkText(value, false); err != nil {
			return evEOF, s.errorf("attribute %s: %v", name, err)
		}
		n = len(rest) - len(after)
	}
	s.attrs = rest[attrs:n]
	if rest[n] == '/' {
		if n++; n >= len(rest) || rest[n] != '>' {
			return evEOF, s.errorf("expected /> in <%s>", local)
		}
		s.empty = true
	}
	s.open[s.depth] = s.pos + 1
	s.depth++
	s.rooted = true
	s.name = local
	s.pos += n + 1
	return evStart, nil
}

func (s *Scanner) endTag(rest []byte) (event, error) {
	n, local, ok := scanName(rest, 2)
	if !ok {
		return evEOF, s.errorf("expected element name after </")
	}
	qname := rest[2:n]
	if n = skipSpace(rest, n); n >= len(rest) || rest[n] != '>' {
		return evEOF, s.errorf("expected > to close </%s", qname)
	}
	if s.depth == 0 {
		return evEOF, s.errorf("unexpected end tag </%s>", qname)
	}
	// The start tag's name is followed by at least one more byte.
	if opened := s.data[s.open[s.depth-1]:]; !bytes.HasPrefix(opened, qname) || isNameByte(opened[len(qname)]) {
		return evEOF, s.errorf("element closed by </%s>", qname)
	}
	s.name = local
	s.pos += n + 1
	return s.end()
}

// end closes the innermost element. Closing the root completes the
// document, so what follows it is checked here: a decoder stops reading
// at the root's end tag and would never see trailing content.
func (s *Scanner) end() (event, error) {
	if s.depth--; s.depth == 0 {
		if _, err := s.next(); err != nil {
			return evEOF, err
		}
	}
	return evEnd, nil
}

// nextAttr splits the first name="value" off an attribute region: the
// local name, the raw value between its quotes and what follows. more is
// false at the end of the region or where it is malformed.
func nextAttr(b []byte) (local, value, rest []byte, more bool) {
	n, local, ok := scanName(b, skipSpace(b, 0))
	if n = skipSpace(b, n); !ok || n >= len(b) || b[n] != '=' {
		return nil, nil, nil, false
	}
	if n = skipSpace(b, n+1); n >= len(b) || b[n] != '"' && b[n] != '\'' {
		return nil, nil, nil, false
	}
	end := bytes.IndexByte(b[n+1:], b[n])
	if end < 0 {
		return nil, nil, nil, false
	}
	return local, b[n+1 : n+1+end], b[n+end+2:], true
}

// scanName reads the qualified name at b[i:] the way encoding/xml reads
// one — ASCII name characters, at most one colon — and returns where it
// ends and its local part: what follows the colon of a prefix:local name,
// otherwise all of it.
func scanName(b []byte, i int) (end int, local []byte, ok bool) {
	start, colon, colons := i, 0, 0
	for ; i < len(b) && isNameByte(b[i]); i++ {
		if b[i] == ':' {
			colon = i
			colons++
		}
	}
	switch {
	case i == start || !isNameStart(b[start]) || colons > 1:
		return i, nil, false
	case colons == 1 && colon > start && colon < i-1:
		return i, b[colon+1 : i], true
	}
	return i, b[start:i], true
}

// isNameStart and isNameByte are the ASCII part of encoding/xml's name
// tables: what a name may begin with and continue with.
func isNameStart(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':'
}

func isNameByte(c byte) bool {
	return isNameStart(c) || '0' <= c && c <= '9' || c == '.' || c == '-'
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// plain8 reports whether none of the eight bytes in w is a control
// character, an ampersand or part of a multi-byte rune (the classic
// has-zero-byte and has-byte-less-than word tricks).
func plain8(w uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	control := (w - ones*0x20) &^ w
	x := w ^ ones*'&'
	amp := (x - ones) &^ x
	return (w|control|amp)&highs == 0
}

// checkText validates a run of character data or an attribute value:
// XML characters only, valid UTF-8, well-formed references to one of the
// five predefined entities or to an XML character. rewrite reports
// whether resolve has anything to do.
func checkText(b []byte, cdata bool) (rewrite bool, err error) {
	for i := 0; i < len(b); {
		for i+8 <= len(b) && plain8(binary.LittleEndian.Uint64(b[i:])) {
			i += 8
		}
		if i == len(b) {
			break
		}
		switch c := b[i]; {
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return false, fmt.Errorf("invalid UTF-8")
			}
			if !isChar(r) {
				return false, fmt.Errorf("illegal character code %U", r)
			}
			i += size
		case c == '&' && !cdata:
			_, n := reference(b[i:])
			if n == 0 {
				return false, fmt.Errorf("invalid character or entity reference")
			}
			i += n
			rewrite = true
		case c == '\r':
			i++
			rewrite = true
		case c < ' ' && c != '\t' && c != '\n':
			return false, fmt.Errorf("illegal character code %U", c)
		default:
			i++
		}
	}
	return rewrite, nil
}

// isChar is the Char production of XML 1.0 section 2.2.
func isChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// reference parses the character or entity reference b begins with and
// returns the character and the reference's length, or 0 if it is not one
// this scanner accepts.
func reference(b []byte) (rune, int) {
	// "&#x10FFFF;" is ten bytes; allow a leading zero or two.
	end := bytes.IndexByte(b[:min(len(b), 12)], ';')
	if end < 0 {
		return 0, 0
	}
	switch name := b[1:end]; string(name) {
	case "lt":
		return '<', end + 1
	case "gt":
		return '>', end + 1
	case "amp":
		return '&', end + 1
	case "apos":
		return '\'', end + 1
	case "quot":
		return '"', end + 1
	default:
		if len(name) < 2 || name[0] != '#' {
			return 0, 0
		}
		digits, base := name[1:], 10
		if digits[0] == 'x' {
			digits, base = digits[1:], 16
		}
		n, err := strconv.ParseUint(string(digits), base, 32)
		if err != nil || !isChar(rune(n)) {
			return 0, 0
		}
		return rune(n), end + 1
	}
}

// resolve returns a copy of checked text with references replaced by
// their characters and unescaped \r\n and \r rewritten to \n.
func resolve(b []byte, cdata bool) []byte {
	out := make([]byte, 0, len(b))
	afterCR := false
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case c == '&' && !cdata:
			r, n := reference(b[i:])
			out = utf8.AppendRune(out, r)
			i += n - 1
			afterCR = false
		case c == '\r':
			out = append(out, '\n')
			afterCR = true
		case c == '\n' && afterCR:
			afterCR = false
		default:
			out = append(out, c)
			afterCR = false
		}
	}
	return out
}

// ParseBool and ParseInt read an attribute value or element text the way
// encoding/xml reads one into a bool or an integer field: empty is the
// zero value, surrounding white space is ignored.
func ParseBool(v []byte) (bool, error) {
	if len(v) == 0 {
		return false, nil
	}
	return strconv.ParseBool(string(bytes.TrimSpace(v)))
}

// ParseInt is ParseBool's counterpart for a decimal 64-bit integer.
func ParseInt(v []byte) (int64, error) {
	if len(v) == 0 {
		return 0, nil
	}
	return strconv.ParseInt(string(bytes.TrimSpace(v)), 10, 64)
}
