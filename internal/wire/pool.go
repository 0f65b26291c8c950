package wire

import "sync"

// maxPooledBuffer bounds the buffers the pool keeps. A 64-request batch
// envelope and its frame are tens of KiB; a buffer grown far past that
// (a body can be up to maxBodyBytes) is left to the collector instead of
// pinning its memory in the pool.
const maxPooledBuffer = 256 << 10

var buffers = sync.Pool{New: func() any { return new([]byte) }}

// GetBuffer returns an empty buffer from the pool the serving side draws
// its wire buffers from: request bodies, decoded envelope Bodies, batch
// frames and reply encodings. Give it back with PutBuffer once nothing
// reads its bytes. A handler's reply buffer comes from Call.Buffer
// instead, which the transport gives back after writing the reply.
func GetBuffer() *[]byte {
	b := buffers.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuffer returns a buffer to the pool. One grown past maxPooledBuffer
// is dropped.
func PutBuffer(b *[]byte) {
	if cap(*b) <= maxPooledBuffer {
		buffers.Put(b)
	}
}

// Buffer returns a buffer for the handler's reply Body. When the
// transport serving the call writes replies out (the HTTP binding), the
// buffer is pooled and goes back to the pool once the reply is written;
// otherwise (the simulated network hands the reply to its caller as it
// is) it is a fresh one.
func (c *Call) Buffer() *[]byte {
	if c != nil && c.pooling {
		for i, b := range c.pooled {
			if b == nil {
				b = GetBuffer()
				c.pooled[i] = b
				return b
			}
		}
	}
	return new([]byte)
}

// release returns the buffers Buffer handed out to the pool.
func (c *Call) release() {
	for i, b := range c.pooled {
		if b != nil {
			PutBuffer(b)
			c.pooled[i] = nil
		}
	}
}
