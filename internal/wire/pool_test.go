package wire

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// An envelope far larger than a batch is served, but none of the buffers
// it grew goes back to the pool to pin its memory.
func TestOversizeEnvelopeNotPooled(t *testing.T) {
	echo := HTTPHandler(func(_ context.Context, call *Call, env *Envelope) (*Envelope, error) {
		body := call.Buffer()
		*body = append(*body, env.Body...)
		return &Envelope{Action: "echo", Timestamp: epoch, Body: *body}, nil
	})
	big := sampleEnvelope()
	big.Body = bytes.Repeat([]byte("x"), 2*maxPooledBuffer)
	data, err := big.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	echo.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	reply, err := DecodeXML(rec.Body.Bytes())
	if err != nil || !bytes.Equal(reply.Body, big.Body) {
		t.Fatalf("echo reply differs (%v)", err)
	}
	for _, pool := range []*bufferPool{&requestBodies, &envelopeBodies, &encodings, &replyBodies, &scratch} {
		for i := 0; i < 64; i++ {
			if b := pool.get(); cap(*b) > maxPooledBuffer {
				t.Fatalf("pool returned a %d-byte buffer, bound is %d", cap(*b), maxPooledBuffer)
			}
		}
	}
}
