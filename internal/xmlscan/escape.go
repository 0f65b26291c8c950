package xmlscan

import "unicode/utf8"

// escapeOf returns the replacement for the rune of the given width at the
// head of s, or "" if it is written as is. The replacements are those of
// encoding/xml's EscapeText, so documents keep the bytes they always had:
// markup characters, quotes and white space other than the space become
// references, and what XML cannot carry becomes U+FFFD.
func escapeOf(r rune, width int) string {
	switch r {
	case '"':
		return "&#34;"
	case '\'':
		return "&#39;"
	case '&':
		return "&amp;"
	case '<':
		return "&lt;"
	case '>':
		return "&gt;"
	case '\t':
		return "&#x9;"
	case '\n':
		return "&#xA;"
	case '\r':
		return "&#xD;"
	}
	if !isChar(r) || r == utf8.RuneError && width == 1 {
		return "\uFFFD"
	}
	return ""
}

// AppendEscaped appends s to dst as character data or an attribute value.
func AppendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, width := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, width = utf8.DecodeRuneInString(s[i:])
		}
		if esc := escapeOf(r, width); esc != "" {
			dst = append(append(dst, s[last:i]...), esc...)
			last = i + width
		}
		i += width
	}
	return append(dst, s[last:]...)
}
