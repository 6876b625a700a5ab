package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one traced interval. Spans are kept in memory and written out
// when the run ends; every per-layer metric is derived from them.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"` // HAU or operator the span belongs to
	Start  int64  `json:"start"`         // wall ns
	End    int64  `json:"end"`
	// Val carries the span's measured quantity where it is not its
	// duration (bytes written, tuples replayed); Count says how many
	// events an aggregate span stands for.
	Val   int64 `json:"val,omitempty"`
	Count int64 `json:"count,omitempty"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds the trace buffer. Per-tuple boundaries never produce
// spans (they are aggregated in opStats), so a run stays far below it;
// spans past the cap are counted, not kept.
const maxSpans = 1 << 18

// tracer collects spans. A nil *tracer records nothing, which is how the
// untraced run keeps the wrappers off its path.
type tracer struct {
	mu      sync.Mutex
	spans   []Span
	dropped int
	nextID  atomic.Int32
}

func newTracer() *tracer { return &tracer{} }

// id reserves a span id so children can name a parent that ends later.
func (t *tracer) id() int32 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span with a reserved or fresh id.
func (t *tracer) add(s Span) int32 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return s.ID
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) error {
	if t == nil || dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// named returns the spans called name, in recording order.
func named(spans []Span, name string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// within returns the spans called name that lie inside one of the outer
// spans, grouped by that outer span.
func within(spans []Span, name string, outer []Span) [][]Span {
	out := make([][]Span, len(outer))
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		for i, o := range outer {
			if s.Start >= o.Start && s.End <= o.End {
				out[i] = append(out[i], s)
				break
			}
		}
	}
	return out
}
