// Package trace provides end-to-end decision tracing: the observability
// counterpart of the paper's dependability argument. A dependable
// authorisation service must be able to show where a decision spent its
// time and why it failed; this package records that evidence as traces —
// trees of timed spans — threaded through the decision pipeline on the
// same context.Context that carries its deadline (PR 5).
//
// The model is deliberately small. A trace is identified by a random
// 64-bit ID and holds a flat list of spans; each span has its own ID, a
// parent span ID, a name, a start time, a duration and a bag of string
// attributes. Spans are opened at the enforcement-point entry (rest
// middleware, pep.Enforcer, the pdpd serving layer) and by layers that
// represent a real hop or fan-out (cluster shard dispatch, PIP backend
// fetches, remote PDP calls); layers in between annotate the current span
// instead of opening one (front cache hit/miss, engine epoch, evaluation
// nanoseconds; ensemble failover attempts).
//
// Sampling is head-plus-exceptional: a Tracer keeps every 1/rate-th trace
// from its head-sampling counter, and additionally always keeps traces
// whose root span ran past the slow threshold and traces any layer marked
// with Keep (the pipeline marks every Indeterminate decision). Discarded
// traces cost their recording only; kept traces land in a bounded ring
// retrievable as JSON from /debug/traces on the daemons.
//
// Instrumentation is nil-safe throughout: FromContext on an untraced
// context returns nil, every Span method is a no-op on a nil receiver,
// and StartSpan returns the context unchanged — so the lock-free decision
// hot path pays one context lookup and nothing else when tracing is off.
//
// Traces cross process boundaries through the wire envelope: the caller
// writes its trace and span IDs into the signed header block, the serving
// side joins the trace with JoinRemote, records its spans, and returns
// them in the reply envelope, where Merge stitches them into the caller's
// live trace — one federated multi-hop decision yields one trace.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ID identifies a trace; SpanID identifies one span within it. Both are
// random non-zero 64-bit values rendered as 16 hex digits on the wire.
type ID uint64

// SpanID identifies a span.
type SpanID uint64

// String renders the ID in its 16-hex-digit wire form.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// String renders the span ID in its 16-hex-digit wire form.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseID parses the 16-hex-digit wire form of a trace ID.
func ParseID(s string) (ID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad trace id %q: %w", s, err)
	}
	return ID(v), nil
}

// ParseSpanID parses the 16-hex-digit wire form of a span ID.
func ParseSpanID(s string) (SpanID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad span id %q: %w", s, err)
	}
	return SpanID(v), nil
}

// idState is the lock-free ID generator: a splitmix64 walk seeded from
// crypto/rand at startup, so IDs are unique across processes with
// overwhelming probability and cost one atomic add to draw.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

func nextID() uint64 {
	for {
		x := idState.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// Attr is one span annotation.
type Attr struct {
	// Key names the annotation, dot-namespaced by layer ("pdp.decision").
	Key string `json:"k"`
	// Value is the rendered annotation value.
	Value string `json:"v"`
}

// Span is one timed operation within a trace. Spans are created by
// Tracer.StartRoot, StartSpan and JoinRemote, annotated by the layer that
// owns them, and closed with End. A span belongs to one goroutine between
// creation and End; spans of the same trace opened on several goroutines
// are safe because the trace's span list is lock-protected. A span still open
// when its trace is recorded appears without duration or annotations, so a
// straggler (a goroutine that ends its span after the root has ended)
// never races the published record.
//
// All methods are no-ops on a nil receiver, so instrumentation never
// branches on whether tracing is active.
type Span struct {
	// TraceID, ID and Parent place the span in its trace tree (Parent is
	// zero for a root, or a remote span ID for a joined hop's root).
	TraceID ID
	ID      SpanID
	Parent  SpanID
	// Name describes the operation ("rest GET", "cluster.shard",
	// "pip.fetch", "serve pdp:decide").
	Name string
	// Start and Duration time the operation (Duration is zero until End).
	Start    time.Time
	Duration time.Duration
	// Attrs are the span's annotations, in the order they were set.
	Attrs []Attr

	tr    *active
	ended bool
}

// SetAttr annotates the span with a string value.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.ended {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, value int64) {
	if s == nil || s.ended {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: strconv.FormatInt(value, 10)})
}

// SetDuration annotates the span with a duration value.
func (s *Span) SetDuration(key string, d time.Duration) {
	if s == nil || s.ended {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: d.String()})
}

// Keep marks the whole trace for retention regardless of the head-sampling
// decision. The pipeline calls it for every Indeterminate decision, so an
// out-of-time or failed authorisation is always captured.
func (s *Span) Keep() {
	if s == nil || s.tr == nil {
		return
	}
	s.tr.keep.Store(true)
}

// End closes the span, fixing its duration. Ending the root span finishes
// the trace: the owning tracer decides retention and publishes it to the
// /debug/traces ring. End is idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	d := s.tr.clock().Sub(s.Start)
	s.tr.mu.Lock()
	s.Duration, s.ended = d, true
	s.tr.mu.Unlock()
	if s.tr.root == s && s.tr.tracer != nil {
		s.tr.tracer.finish(s.tr)
	}
}

// active is one live trace being recorded: the mutable shared state behind
// the spans handed to instrumentation. tracer is nil for remote-hop
// collectors (JoinRemote), whose spans are exported to the caller instead
// of retained locally.
type active struct {
	id     ID
	tracer *Tracer
	clock  func() time.Time
	root   *Span
	// sampled is the head-sampling verdict taken at the root; keep is the
	// forced-retention flag any layer may raise.
	sampled bool
	keep    atomic.Bool

	mu    sync.Mutex
	spans []*Span
}

// newSpan allocates a span into the trace under its lock.
func (tr *active) newSpan(name string, parent SpanID) *Span {
	sp := &Span{
		TraceID: tr.id,
		ID:      SpanID(nextID()),
		Parent:  parent,
		Name:    name,
		Start:   tr.clock(),
		tr:      tr,
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
	return sp
}

type ctxKey struct{}

// FromContext returns the current span, or nil when the context is
// untraced. The nil result is safe to annotate (no-op).
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// CurrentID returns the current trace's wire-form ID, or "" when the
// context is untraced — the joinable correlation key audit records carry.
func CurrentID(ctx context.Context) string {
	if s := FromContext(ctx); s != nil {
		return s.TraceID.String()
	}
	return ""
}

// StartSpan opens a child of the current span, or returns (ctx, nil) when
// the context is untraced: layers instrument unconditionally and pay
// nothing without a trace.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.tr.newSpan(name, parent.ID)
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// Stats counts tracer activity.
type Stats struct {
	// Started counts traces opened at this tracer's roots.
	Started int64
	// Kept counts retained traces; KeptSampled, KeptSlow and KeptForced
	// break retention down by cause (a trace counts once, in the first
	// matching cause: forced, then slow, then sampled).
	Kept, KeptSampled, KeptSlow, KeptForced int64
	// Dropped counts traces discarded at the root.
	Dropped int64
	// Evicted counts kept traces pushed out of the ring by newer ones.
	Evicted int64
}

type tracerCounters struct {
	started, kept, keptSampled, keptSlow, keptForced, dropped, evicted atomic.Int64
}

// Options parameterise a Tracer.
type Options struct {
	// Sample is the head-sampling fraction in [0, 1]: 0 keeps no trace on
	// the head decision alone (slow and forced traces are still kept), 1
	// keeps every trace. Intermediate fractions keep every round(1/Sample)-th
	// trace, deterministically, so tests and experiments are exact.
	Sample float64
	// SlowThreshold always keeps traces whose root span ran at least this
	// long; 0 disables the slow path.
	SlowThreshold time.Duration
	// Capacity bounds the kept-trace ring; <= 0 defaults to 256.
	Capacity int
	// Clock overrides time.Now, for deterministic tests.
	Clock func() time.Time
}

// Tracer owns the sampling policy and the bounded ring of kept traces for
// one process. Decision paths touch it only at the root (one atomic
// counter draw); retention work happens once per trace at the root's End.
type Tracer struct {
	sampleEvery uint64 // 0 = head-sample nothing, 1 = everything
	slow        time.Duration
	capacity    int
	clock       func() time.Time

	seq   atomic.Uint64
	stats tracerCounters

	mu   sync.Mutex
	ring []*Record
}

// NewTracer builds a tracer.
func NewTracer(o Options) *Tracer {
	t := &Tracer{slow: o.SlowThreshold, capacity: o.Capacity, clock: o.Clock}
	if t.capacity <= 0 {
		t.capacity = 256
	}
	if t.clock == nil {
		t.clock = time.Now
	}
	switch {
	case o.Sample >= 1:
		t.sampleEvery = 1
	case o.Sample > 0:
		t.sampleEvery = uint64(1/o.Sample + 0.5)
	}
	return t
}

// Stats returns a snapshot of the tracer counters.
func (t *Tracer) Stats() Stats {
	return Stats{
		Started:     t.stats.started.Load(),
		Kept:        t.stats.kept.Load(),
		KeptSampled: t.stats.keptSampled.Load(),
		KeptSlow:    t.stats.keptSlow.Load(),
		KeptForced:  t.stats.keptForced.Load(),
		Dropped:     t.stats.dropped.Load(),
		Evicted:     t.stats.evicted.Load(),
	}
}

// StartRoot opens a trace root at an entry point. When the context already
// carries a span (a layered entry: a PEP inside an already-traced serving
// layer), it opens a child instead, so composed entries yield one trace.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	if FromContext(ctx) != nil {
		return StartSpan(ctx, name)
	}
	t.stats.started.Add(1)
	tr := &active{id: ID(nextID()), tracer: t, clock: t.clock}
	tr.sampled = t.sampleEvery == 1 || (t.sampleEvery > 0 && t.seq.Add(1)%t.sampleEvery == 0)
	sp := tr.newSpan(name, 0)
	tr.root = sp
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// finish applies the retention policy to a trace whose root just ended.
func (t *Tracer) finish(tr *active) {
	cause := ""
	switch {
	case tr.keep.Load():
		cause = "forced"
		t.stats.keptForced.Add(1)
	case t.slow > 0 && tr.root.Duration >= t.slow:
		cause = "slow"
		t.stats.keptSlow.Add(1)
	case tr.sampled:
		cause = "sampled"
		t.stats.keptSampled.Add(1)
	default:
		t.stats.dropped.Add(1)
		return
	}
	t.stats.kept.Add(1)
	rec := tr.record(cause)
	t.mu.Lock()
	if len(t.ring) >= t.capacity {
		n := copy(t.ring, t.ring[1:])
		t.ring = t.ring[:n]
		t.stats.evicted.Add(1)
	}
	t.ring = append(t.ring, rec)
	t.mu.Unlock()
}

// Recent returns up to limit kept traces, newest first (limit <= 0 returns
// all retained).
func (t *Tracer) Recent(limit int) []*Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.ring)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]*Record, n)
	for i := 0; i < n; i++ {
		out[i] = t.ring[len(t.ring)-1-i]
	}
	return out
}

// Find returns the kept trace with the given wire-form ID, or nil.
func (t *Tracer) Find(id string) *Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.ring) - 1; i >= 0; i-- {
		if t.ring[i].TraceID == id {
			return t.ring[i]
		}
	}
	return nil
}
