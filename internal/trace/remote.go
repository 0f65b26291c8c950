package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Record is one finished, retained trace in its exposition form: what
// /debug/traces serves and what crosses hops in reply envelopes.
type Record struct {
	// TraceID is the wire-form trace ID.
	TraceID string `json:"trace_id"`
	// Root names the root span; Duration is its duration.
	Root     string        `json:"root"`
	Duration time.Duration `json:"duration_ns"`
	// Kept states why the trace was retained: "sampled", "slow" or
	// "forced".
	Kept string `json:"kept"`
	// Spans are every recorded span, in creation order.
	Spans []SpanRecord `json:"spans"`
}

// SpanRecord is one span in exposition form.
type SpanRecord struct {
	ID       string        `json:"id"`
	Parent   string        `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// record snapshots the trace's spans under its lock; an open span's owner
// may still be writing it, so only its identity is copied.
func (tr *active) record(cause string) *Record {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	rec := &Record{
		TraceID: tr.id.String(),
		Kept:    cause,
		Spans:   make([]SpanRecord, len(tr.spans)),
	}
	if tr.root != nil {
		rec.Root = tr.root.Name
		rec.Duration = tr.root.Duration
	}
	for i, sp := range tr.spans {
		rec.Spans[i] = SpanRecord{ID: sp.ID.String(), Name: sp.Name, Start: sp.Start}
		if sp.ended {
			rec.Spans[i].Duration, rec.Spans[i].Attrs = sp.Duration, sp.Attrs
		}
		if sp.Parent != 0 {
			rec.Spans[i].Parent = sp.Parent.String()
		}
	}
	return rec
}

// JoinRemote continues a trace that arrived over the wire: it opens a
// collector trace under the caller's trace ID with a root span parented on
// the caller's span, so spans this hop records nest correctly once merged
// back. The collector retains nothing locally — the serving layer exports
// its spans into the reply with Export and the caller stitches them with
// Merge. The returned root span must be ended before Export.
func JoinRemote(ctx context.Context, traceID, parentSpan, name string) (context.Context, *Span, error) {
	tid, err := ParseID(traceID)
	if err != nil {
		return ctx, nil, err
	}
	var parent SpanID
	if parentSpan != "" {
		if parent, err = ParseSpanID(parentSpan); err != nil {
			return ctx, nil, err
		}
	}
	tr := &active{id: tid, clock: time.Now}
	sp := tr.newSpan(name, parent)
	tr.root = sp
	return context.WithValue(ctx, ctxKey{}, sp), sp, nil
}

// Export serialises every span of the given span's trace for the reply
// envelope. It returns nil for a nil span. Export is meant for a finished
// hop: call it after the hop's root span has ended.
func Export(s *Span) []byte {
	if s == nil {
		return nil
	}
	rec := s.tr.record("")
	data, err := json.Marshal(rec.Spans)
	if err != nil {
		return nil
	}
	return data
}

// Merge stitches spans exported by a downstream hop into the current
// trace. Spans whose trace ID differs from the current trace are
// re-homed onto it (the downstream hop is authoritative only for its own
// span tree shape, not for trace identity). Merging into an untraced
// context is a no-op.
func Merge(ctx context.Context, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	cur := FromContext(ctx)
	if cur == nil {
		return nil
	}
	var spans []SpanRecord
	if err := json.Unmarshal(data, &spans); err != nil {
		return fmt.Errorf("trace: merge: %w", err)
	}
	tr := cur.tr
	merged := make([]*Span, 0, len(spans))
	for _, sr := range spans {
		sp := &Span{
			TraceID:  tr.id,
			Name:     sr.Name,
			Start:    sr.Start,
			Duration: sr.Duration,
			Attrs:    sr.Attrs,
			tr:       tr,
			ended:    true,
		}
		if id, err := ParseSpanID(sr.ID); err == nil {
			sp.ID = id
		} else {
			sp.ID = SpanID(nextID())
		}
		if sr.Parent != "" {
			if pid, err := ParseSpanID(sr.Parent); err == nil {
				sp.Parent = pid
			}
		}
		merged = append(merged, sp)
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, merged...)
	tr.mu.Unlock()
	return nil
}

// Handler serves the tracer's kept traces as JSON: the /debug/traces
// endpoint. ?id=<trace-id> returns one trace (404 when not retained);
// ?limit=N bounds the listing (default 32, newest first).
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if id := r.URL.Query().Get("id"); id != "" {
			rec := t.Find(id)
			if rec == nil {
				http.Error(w, fmt.Sprintf(`{"error":"trace %s not retained"}`, id), http.StatusNotFound)
				return
			}
			_ = json.NewEncoder(w).Encode(rec)
			return
		}
		limit := 32
		if v := r.URL.Query().Get("limit"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				limit = n
			}
		}
		out := struct {
			Stats  Stats     `json:"stats"`
			Traces []*Record `json:"traces"`
		}{t.Stats(), t.Recent(limit)}
		_ = json.NewEncoder(w).Encode(out)
	})
}
