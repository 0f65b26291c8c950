package xmlscan

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strings"
	"testing"
)

// trace walks a whole document with the scanner and renders what it saw:
// start tags with their attributes in order, merged character data, end
// tags. The oracle renders encoding/xml's view of the same document in
// the same form.
func trace(data []byte) (string, error) {
	var out strings.Builder
	s := New(data)
	text := false
	for {
		ev, err := s.next()
		if err != nil {
			return "", err
		}
		if ev != evText && text {
			out.WriteString("\n")
			text = false
		}
		switch ev {
		case evEOF:
			return out.String(), nil
		case evStart:
			fmt.Fprintf(&out, "<%s", s.name)
			for b := s.attrs; ; {
				local, _, rest, more := nextAttr(b)
				if !more {
					break
				}
				// Attr resolves references; with repeated names it
				// returns the last, which is fine for a trace.
				v, _ := s.Attr(string(local))
				fmt.Fprintf(&out, " %s=%q", local, v)
				b = rest
			}
			out.WriteString(">\n")
		case evEnd:
			fmt.Fprintf(&out, "</%s>\n", s.name)
			if s.depth == 0 {
				return out.String(), nil
			}
		case evText:
			if !text {
				out.WriteString("text:")
				text = true
			}
			fmt.Fprintf(&out, "%q", s.text)
		}
	}
}

// oracleTrace renders encoding/xml's strict-mode view up to the end of
// the root element, which is as far as xml.Unmarshal reads.
func oracleTrace(data []byte) (string, error) {
	var out strings.Builder
	d := xml.NewDecoder(bytes.NewReader(data))
	depth, text := 0, false
	last := map[string]string{}
	for {
		tok, err := d.Token()
		if err != nil {
			return "", err
		}
		switch tok.(type) {
		case xml.StartElement, xml.EndElement:
			// Comments and processing instructions do not split text.
			if text {
				out.WriteString("\n")
				text = false
			}
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			fmt.Fprintf(&out, "<%s", t.Name.Local)
			clear(last)
			for _, a := range t.Attr {
				last[a.Name.Local] = a.Value
			}
			for _, a := range t.Attr {
				fmt.Fprintf(&out, " %s=%q", a.Name.Local, last[a.Name.Local])
			}
			out.WriteString(">\n")
		case xml.EndElement:
			fmt.Fprintf(&out, "</%s>\n", t.Name.Local)
			if depth--; depth == 0 {
				return out.String(), nil
			}
		case xml.CharData:
			if depth == 0 {
				continue
			}
			if !text {
				out.WriteString("text:")
				text = true
			}
			fmt.Fprintf(&out, "%q", []byte(t))
		}
	}
}

var accepted = []string{
	`<a/>`,
	`<a></a>`,
	`<?xml version="1.0" encoding="UTF-8"?>` + "\n<a>x</a>\n",
	`<?xml version='1.0' encoding='utf-8' standalone="yes"?><a/>`,
	`<!-- head --><a><!-- in -->t<!-- mid -->u</a><!-- tail --><?pi data?>`,
	`<ns:a xmlns:ns="urn:x" ns:k="v" k2='w'><ns:b/></ns:a>`,
	`<a k = "v"   l="1"m="2" />`,
	`<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#x10FFFF;</a>`,
	`<a k="&lt;&#9;&#xA;'"/>`,
	`<a><![CDATA[<raw> & ]] ]> text]]>tail</a>`,
	"<a>line1\r\nline2\rline3\n</a>",
	"<a k=\"v\r\nw\"/>",
	`<a>&#13;` + "\n" + `</a>`,
	`<a>日本語 π</a>`,
	`<a:>x</a:>`,
	`<:a>x</:a>`,
	`<a><b><c><d><e>deep</e></d></c></b></a>`,
	`<a >x</a  >`,
	`<a>]] > ] ]></a>`,
	`<a k="]]>"/>`,
	strings.Repeat("<a>", MaxDepth) + strings.Repeat("</a>", MaxDepth),
}

var rejected = []string{
	``,
	`   `,
	`text`,
	`text<a/>`,
	`<a/>text`,
	`<a/><b/>`,
	`<a/><`,
	`<a`,
	`<a>`,
	`<a></b>`,
	`<a></a:x>`,
	`<a><b></a></b>`,
	`</a>`,
	`< a/>`,
	`<1a/>`,
	`<-a/>`,
	`<a:b:c/>`,
	`<é/>`,
	`<a k/>`,
	`<a k=v/>`,
	`<a k="v/>`,
	`<a k="<"/>`,
	`<a 1k="v"/>`,
	`<a k:l:m="v"/>`,
	`<a / >`,
	`<a>&bogus;</a>`,
	`<a>&amp</a>`,
	`<a>& amp;</a>`,
	`<a>&#;</a>`,
	`<a>&#x;</a>`,
	`<a>&#X41;</a>`,
	`<a>&#0;</a>`,
	`<a>&#8;</a>`,
	`<a>&#xD800;</a>`,
	`<a>&#xFFFE;</a>`,
	`<a>&#x110000;</a>`,
	`<a>&#99999999999999999999;</a>`,
	"<a>\x00</a>",
	"<a>\x1f</a>",
	"<a>\xff</a>",
	"<a>\xef\xbf\xbe</a>",
	"<a k=\"\x01\"/>",
	`<a>]]></a>`,
	`<a><![CDATA[x</a>`,
	`<a><![CDAT[x]]></a>`,
	`<![CDATA[x]]><a/>`,
	`<a><!-- -- --></a>`,
	`<a><!-- x</a>`,
	`<a><!-x--></a>`,
	`<!DOCTYPE a><a/>`,
	`<a><!ENTITY x "y"></a>`,
	`<?xml version="1.1"?><a/>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
	`<?xml version="1.0" encoding="latin1" encoding="utf-8"?><a/>`,
	`<? pi?><a/>`,
	"<?A\xff?><a/>",
	`<?pi <a/>`,
	`<?1?><a/>`,
	strings.Repeat("<a>", MaxDepth+1) + strings.Repeat("</a>", MaxDepth+1),
}

func TestAcceptedDocumentsMatchEncodingXML(t *testing.T) {
	for _, doc := range accepted {
		got, err := trace([]byte(doc))
		if err != nil {
			t.Errorf("%q: rejected: %v", doc, err)
			continue
		}
		want, err := oracleTrace([]byte(doc))
		if err != nil {
			t.Errorf("%q: accepted, but encoding/xml rejects it: %v", doc, err)
			continue
		}
		if got != want {
			t.Errorf("%q:\n got %s\nwant %s", doc, got, want)
		}
	}
}

func TestRejectedDocuments(t *testing.T) {
	for _, doc := range rejected {
		if got, err := trace([]byte(doc)); err == nil {
			t.Errorf("%q: accepted as\n%s", doc, got)
		}
	}
}

func TestRootChildrenTextSkipAttr(t *testing.T) {
	doc := []byte(`<x:Doc a="1"><Keep k="v&amp;w" k='last'>a<!-- c -->b<Nested>no</Nested><![CDATA[c]]></Keep>
		<Drop><Deep><Deeper/></Deep>text</Drop><Empty/></x:Doc>`)
	s := New(doc)
	if err := s.Root("Other"); err == nil {
		t.Fatal("Root accepted the wrong element name")
	}
	s = New(doc)
	if err := s.Root("Doc"); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Attr("a"); !ok || string(v) != "1" {
		t.Errorf("root attribute a = %q, %v", v, ok)
	}
	var seen []string
	err := s.Children(func(name []byte) error {
		seen = append(seen, string(name))
		switch string(name) {
		case "Keep":
			if v, ok := s.Attr("k"); !ok || string(v) != "last" {
				t.Errorf("repeated attribute: got %q, want the last", v)
			}
			if _, ok := s.Attr("absent"); ok {
				t.Error("absent attribute reported present")
			}
			text, err := s.Text()
			if string(text) != "abc" {
				t.Errorf("Text = %q, want %q", text, "abc")
			}
			return err
		case "Empty":
			text, err := s.Text()
			if len(text) != 0 {
				t.Errorf("empty element text = %q", text)
			}
			return err
		}
		return s.Skip()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(seen, ","); got != "Keep,Drop,Empty" {
		t.Errorf("children = %s", got)
	}
}

func TestTextAliasesInputUnlessRewritten(t *testing.T) {
	doc := []byte(`<a><b>plain</b><c>x&amp;y</c></a>`)
	s := New(doc)
	if err := s.Root("a"); err != nil {
		t.Fatal(err)
	}
	err := s.Children(func(name []byte) error {
		text, err := s.Text()
		inside := len(text) > 0 && bytes.Contains(doc, text) && &text[0] == &doc[bytes.Index(doc, text)]
		if want := string(name) == "b"; inside != want {
			t.Errorf("<%s>: text %q aliases input = %v, want %v", name, text, inside, want)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAppendEscapedMatchesEncodingXML(t *testing.T) {
	for _, in := range []string{"", "plain", `<&>"'`, "tab\tnl\ncr\r", "π 日本", "bad\x00\x1f\xff", "\ufffe\uffff", "ok\ufffd"} {
		var want bytes.Buffer
		if err := xml.EscapeText(&want, []byte(in)); err != nil {
			t.Fatal(err)
		}
		got := AppendEscaped([]byte("x"), in)
		if string(got[1:]) != want.String() {
			t.Errorf("AppendEscaped(%q) = %q, want %q", in, got[1:], want.String())
		}
	}
}

func TestParseBoolInt(t *testing.T) {
	if v, err := ParseBool(nil); v || err != nil {
		t.Errorf("ParseBool(empty) = %v, %v", v, err)
	}
	if v, err := ParseBool([]byte(" true\n")); !v || err != nil {
		t.Errorf("ParseBool(padded true) = %v, %v", v, err)
	}
	if _, err := ParseBool([]byte(" ")); err == nil {
		t.Error("ParseBool(blank) accepted")
	}
	if v, err := ParseInt([]byte(" -42 ")); v != -42 || err != nil {
		t.Errorf("ParseInt = %v, %v", v, err)
	}
	if v, err := ParseInt(nil); v != 0 || err != nil {
		t.Errorf("ParseInt(empty) = %v, %v", v, err)
	}
	if _, err := ParseInt([]byte("1.5")); err == nil {
		t.Error("ParseInt(1.5) accepted")
	}
}

// FuzzScanner: the scanner never panics, and whatever it accepts
// encoding/xml accepts too, with the same elements, attributes and text.
func FuzzScanner(f *testing.F) {
	for _, doc := range accepted {
		f.Add([]byte(doc))
	}
	for _, doc := range rejected {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := trace(data)
		if err != nil {
			return
		}
		want, err := oracleTrace(data)
		if err != nil {
			t.Fatalf("accepted, but encoding/xml rejects it: %v\n%q", err, data)
		}
		if got != want {
			t.Fatalf("%q:\n got %s\nwant %s", data, got, want)
		}
	})
}
