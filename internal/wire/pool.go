package wire

import "sync"

// maxPooledBuffer bounds the buffers the pool keeps. A 64-request batch
// envelope and its frame are tens of KiB; a buffer grown far past that
// (a body can be up to maxBodyBytes) is left to the collector instead of
// pinning its memory in the pool.
const maxPooledBuffer = 256 << 10

// bufferPool pools the buffers of one role in an exchange. Each role
// draws from its own pool, so a buffer comes back sized by that role's
// earlier messages. From one pool shared by roles of different sizes, a
// role would grow whichever smaller buffer came up next, and what a served
// request allocates would depend on the order the pool returned buffers in.
type bufferPool struct{ pool sync.Pool }

func (p *bufferPool) get() *[]byte {
	b, ok := p.pool.Get().(*[]byte)
	if !ok {
		return new([]byte)
	}
	*b = (*b)[:0]
	return b
}

// put returns b to the pool. One grown past maxPooledBuffer is dropped.
func (p *bufferPool) put(b *[]byte) {
	if cap(*b) <= maxPooledBuffer {
		p.pool.Put(b)
	}
}

// The serving side's buffer roles.
var (
	requestBodies  bufferPool // HTTP request bodies, read whole
	envelopeBodies bufferPool // envelope Bodies decoded from them
	encodings      bufferPool // reply envelopes as written out, and WireSize's
	replyBodies    bufferPool // handler reply Bodies, from Call.Buffer
	scratch        bufferPool // handler scratch, from GetBuffer
)

// GetBuffer returns an empty scratch buffer for a handler, such as the
// request documents of a batch frame. Give it back with PutBuffer once
// nothing reads its bytes. A handler's reply buffer comes from Call.Buffer
// instead, which the transport gives back after writing the reply.
func GetBuffer() *[]byte { return scratch.get() }

// PutBuffer returns a buffer from GetBuffer to the pool. One grown past
// maxPooledBuffer is dropped.
func PutBuffer(b *[]byte) { scratch.put(b) }

// Buffer returns a buffer for the handler's reply Body. When the
// transport serving the call writes replies out (the HTTP binding), the
// buffer is pooled and goes back to the pool once the reply is written;
// otherwise (the simulated network hands the reply to its caller as it
// is) it is a fresh one.
func (c *Call) Buffer() *[]byte {
	if c != nil && c.pooling {
		for i, b := range c.pooled {
			if b == nil {
				b = replyBodies.get()
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
			replyBodies.put(b)
			c.pooled[i] = nil
		}
	}
}
