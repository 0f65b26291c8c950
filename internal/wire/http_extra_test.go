package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestHTTPHandlerRejectsNonPost(t *testing.T) {
	srv := httptest.NewServer(HTTPHandler(func(_ context.Context, _ *Call, env *Envelope) (*Envelope, error) {
		return env, nil
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestHTTPHandlerRejectsMalformedEnvelope(t *testing.T) {
	srv := httptest.NewServer(HTTPHandler(func(_ context.Context, _ *Call, env *Envelope) (*Envelope, error) {
		return env, nil
	}))
	defer srv.Close()
	resp, err := http.Post(srv.URL, "application/xml", strings.NewReader("not xml at all"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPHandlerSurfacesHandlerError(t *testing.T) {
	srv := httptest.NewServer(HTTPHandler(func(context.Context, *Call, *Envelope) (*Envelope, error) {
		return nil, errors.New("pdp exploded")
	}))
	defer srv.Close()
	client := &HTTPClient{Endpoint: srv.URL}
	_, err := client.Send(context.Background(), sampleEnvelope())
	if err == nil || !strings.Contains(err.Error(), "pdp exploded") {
		t.Errorf("handler error not surfaced: %v", err)
	}
}

func TestHTTPHandlerNoContentReply(t *testing.T) {
	srv := httptest.NewServer(HTTPHandler(func(context.Context, *Call, *Envelope) (*Envelope, error) {
		return nil, nil // one-way message
	}))
	defer srv.Close()
	client := &HTTPClient{Endpoint: srv.URL}
	reply, err := client.Send(context.Background(), sampleEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if reply != nil {
		t.Errorf("one-way reply = %+v, want nil", reply)
	}
}

func TestProtectionString(t *testing.T) {
	cases := map[Protection]string{
		Plain:           "plain",
		Signed:          "signed",
		SignedEncrypted: "signed+encrypted",
		Protection(9):   "protection(9)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Protection(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestResetStats(t *testing.T) {
	n := NewNetwork(time.Millisecond, 1)
	n.Register("a", func(_ context.Context, _ *Call, env *Envelope) (*Envelope, error) { return env, nil })
	n.Register("b", func(_ context.Context, _ *Call, env *Envelope) (*Envelope, error) { return env, nil })
	if _, err := n.Send(context.Background(), &Call{}, &Envelope{From: "a", To: "b", Timestamp: time.Unix(0, 0)}); err != nil {
		t.Fatal(err)
	}
	if n.Stats().Messages == 0 {
		t.Fatal("no traffic recorded")
	}
	n.ResetStats()
	if st := n.Stats(); st.Messages != 0 || st.Bytes != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
}

// An envelope over the limit is refused as too large, not cut short and
// then reported as malformed.
func TestHTTPHandlerRefusesOversizeBody(t *testing.T) {
	srv := httptest.NewServer(HTTPHandler(func(_ context.Context, _ *Call, env *Envelope) (*Envelope, error) {
		return env, nil
	}))
	defer srv.Close()
	big := sampleEnvelope()
	big.Body = make([]byte, 8<<20) // 11 MB once base64-encoded
	data, err := big.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= maxBodyBytes {
		t.Fatalf("test envelope is %d bytes, not over the %d limit", len(data), maxBodyBytes)
	}
	for name, body := range map[string]func() *http.Request{
		"declared length": func() *http.Request {
			req, _ := http.NewRequest(http.MethodPost, srv.URL, strings.NewReader(string(data)))
			return req
		},
		"chunked": func() *http.Request {
			req, _ := http.NewRequest(http.MethodPost, srv.URL, struct{ io.Reader }{strings.NewReader(string(data))})
			return req
		},
	} {
		resp, err := http.DefaultClient.Do(body())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversize envelope status = %d, want 413", name, resp.StatusCode)
		}
	}
	// A body shorter than it declares is still a plain bad request.
	conn, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	fmt.Fprintf(conn, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\nConnection: close\r\n\r\nshort")
	_ = conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated body status = %d, want 400", resp.StatusCode)
	}
}

// A reply over the limit is an explicit client error, with or without a
// declared length.
func TestHTTPClientRefusesOversizeReply(t *testing.T) {
	for _, declare := range []bool{true, false} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			if declare {
				w.Header().Set("Content-Length", strconv.Itoa(maxBodyBytes+1))
			}
			chunk := make([]byte, 1<<20)
			for sent := 0; sent <= maxBodyBytes; sent += len(chunk) {
				if _, err := w.Write(chunk[:min(len(chunk), maxBodyBytes+1-sent)]); err != nil {
					return
				}
			}
		}))
		client := &HTTPClient{Endpoint: srv.URL}
		_, err := client.Send(context.Background(), sampleEnvelope())
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), "reply too large") {
			t.Errorf("declared=%v: oversize reply error = %v, want \"reply too large\"", declare, err)
		}
	}
}
