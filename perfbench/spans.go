package main

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share its
// request ID; Parent is the span that caused this one (0 at the root).
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent"`
	Request int           `json:"request"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

// Dur is the span's length.
func (s span) Dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the length of a traced run. A nil
// recorder records nothing, which is how the untraced pass runs the same
// code.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// spanCtxKey carries the current span through a context, so spans opened
// inside the layers (the trace provider) find their parent and request.
type spanCtxKey struct{}

type spanRef struct{ id, request int }

// start opens a span named name under the span carried by ctx (or as the
// root of request req when ctx carries none) and returns the context that
// carries it. The returned func closes the span.
func (r *recorder) start(ctx context.Context, name string, req int) (context.Context, func()) {
	if r == nil {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanCtxKey{}).(spanRef)
	if parent.id != 0 {
		req = parent.request
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent.id, Request: req, Name: name, Start: time.Since(r.origin)})
	r.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, spanRef{id: id, request: req}), func() {
		end := time.Since(r.origin)
		r.mu.Lock()
		r.spans[id-1].End = end
		r.mu.Unlock()
	}
}

// all returns a copy of the recorded spans.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeTo writes the spans as NDJSON, one span a line.
func (r *recorder) writeTo(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.all() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// named returns the spans called name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// millis and micros convert span lengths to float samples.
func millis(spans []span) []float64 { return scaled(spans, float64(time.Millisecond)) }
func micros(spans []span) []float64 { return scaled(spans, float64(time.Microsecond)) }

func scaled(spans []span, unit float64) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.Dur()) / unit
	}
	return out
}

// selfTime is s's length minus the part of its interval that its direct
// children cover. Overlapping children (concurrent calls under one span)
// count once.
func selfTime(s span, spans []span) time.Duration {
	var kids [][2]time.Duration
	for _, c := range spans {
		if c.Parent != s.ID {
			continue
		}
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			kids = append(kids, [2]time.Duration{lo, hi})
		}
	}
	return s.Dur() - covered(kids)
}

// covered is the length of the union of intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	started := false
	var lo time.Duration
	for _, x := range iv {
		switch {
		case !started:
			lo, end, started = x[0], x[1], true
		case x[0] > end:
			total += end - lo
			lo, end = x[0], x[1]
		case x[1] > end:
			end = x[1]
		}
	}
	if started {
		total += end - lo
	}
	return total
}
