package spe

import (
	"context"
	"testing"
	"time"

	"meteorshower/internal/tuple"
)

// edgeReader unpacks micro-batches from an edge into a per-tuple stream,
// so tests written in terms of individual tuples keep reading naturally.
type edgeReader struct {
	e   *Edge
	buf []*tuple.Tuple
}

func newEdgeReader(e *Edge) *edgeReader { return &edgeReader{e: e} }

func (r *edgeReader) fill(b *tuple.Batch) {
	r.buf = append(r.buf, b.Tuples...)
	tuple.PutBatch(b)
}

func (r *edgeReader) pop() *tuple.Tuple {
	t := r.buf[0]
	r.buf = r.buf[1:]
	return t
}

// tryNext returns the next tuple without blocking, or nil if none is
// immediately available.
func (r *edgeReader) tryNext() *tuple.Tuple {
	for len(r.buf) == 0 {
		b, _ := r.e.pop()
		if b == nil {
			return nil
		}
		r.fill(b)
	}
	return r.pop()
}

// next waits up to timeout for the next tuple, returning nil on timeout
// or edge close.
func (r *edgeReader) next(timeout time.Duration) *tuple.Tuple {
	if t := r.tryNext(); t != nil {
		return t
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for len(r.buf) == 0 {
		b, ok := r.e.Recv(ctx)
		if !ok {
			return nil
		}
		r.fill(b)
	}
	return r.pop()
}

// discard drains e in the background until the test ends, so an HAU whose
// output nobody inspects never blocks on a full edge.
func discard(t *testing.T, e *Edge) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() {
		for {
			b, ok := e.Recv(ctx)
			if !ok {
				return
			}
			tuple.PutBatch(b)
		}
	}()
}
