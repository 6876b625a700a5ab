package main

import (
	"sync/atomic"
	"time"

	"meteorshower/internal/operator"
	"meteorshower/internal/tuple"
)

// opStats aggregates one operator kind's per-tuple boundary in place: a
// span per tuple would outgrow the program's own heap within seconds.
type opStats struct {
	calls  atomic.Int64
	selfNS atomic.Int64 // OnTuple time minus the time spent in emit
}

// opWrap times an operator's OnTuple, Snapshot, AppendSnapshot and
// Restore. The runtime discovers optional behaviour by type assertion
// (operator.IncrementalSnapshotter, PartitionedState, Ticker), so
// wrapOperator returns a type with exactly the optional methods of the
// operator it wraps: otherwise the traced run would checkpoint, rescale or
// tick a different program from the untraced one.
type opWrap struct {
	op    operator.Operator
	tr    *tracer
	stats *opStats

	// emit is the downstream emitter of the OnTuple call in progress and
	// emitNS the time spent in it; forward is w.emitThrough, bound once
	// so the per-tuple path does not allocate a closure. An operator is
	// driven by one HAU goroutine, so these need no locking.
	emit    operator.Emitter
	emitNS  int64
	forward operator.Emitter
}

func (w *opWrap) Name() string     { return w.op.Name() }
func (w *opWrap) StateSize() int64 { return w.op.StateSize() }

func (w *opWrap) OnTuple(port int, t *tuple.Tuple, emit operator.Emitter) error {
	w.emit, w.emitNS = emit, 0
	start := time.Now()
	err := w.op.OnTuple(port, t, w.forward)
	w.stats.calls.Add(1)
	w.stats.selfNS.Add(int64(time.Since(start)) - w.emitNS)
	return err
}

func (w *opWrap) emitThrough(port int, t *tuple.Tuple) {
	start := time.Now()
	w.emit(port, t)
	w.emitNS += int64(time.Since(start))
}

func (w *opWrap) span(name string, start time.Time, val int) {
	w.tr.add(Span{Name: name, Key: w.op.Name(), Start: start.UnixNano(), End: time.Now().UnixNano(), Val: int64(val)})
}

func (w *opWrap) Snapshot() ([]byte, error) {
	start := time.Now()
	b, err := w.op.Snapshot()
	w.span("operator.snapshot", start, len(b))
	return b, err
}

func (w *opWrap) Restore(b []byte) error {
	start := time.Now()
	err := w.op.Restore(b)
	w.span("operator.restore", start, len(b))
	return err
}

func (w *opWrap) appendSnapshot(buf []byte) ([]byte, bool, error) {
	start := time.Now()
	n := len(buf)
	out, dirty, err := w.op.(operator.IncrementalSnapshotter).AppendSnapshot(buf)
	w.span("operator.snapshot", start, len(out)-n)
	return out, dirty, err
}

// Each optional interface gets a method carrier; the combinations below
// embed the carriers the wrapped operator needs.
type incM struct{ w *opWrap }
type partM struct{ w *opWrap }
type tickM struct{ w *opWrap }

func (m incM) AppendSnapshot(buf []byte) ([]byte, bool, error) { return m.w.appendSnapshot(buf) }
func (m partM) PartitionSlots() int {
	return m.w.op.(operator.PartitionedState).PartitionSlots()
}
func (m tickM) OnTick(now int64, emit operator.Emitter) error {
	return m.w.op.(operator.Ticker).OnTick(now, emit)
}

type (
	wrapI struct {
		*opWrap
		incM
	}
	wrapP struct {
		*opWrap
		partM
	}
	wrapT struct {
		*opWrap
		tickM
	}
	wrapIP struct {
		*opWrap
		incM
		partM
	}
	wrapIT struct {
		*opWrap
		incM
		tickM
	}
	wrapPT struct {
		*opWrap
		partM
		tickM
	}
	wrapIPT struct {
		*opWrap
		incM
		partM
		tickM
	}
)

// wrapOperator returns op timed into stats and tr, exposing the same
// optional interfaces as op.
func wrapOperator(op operator.Operator, tr *tracer, stats *opStats) operator.Operator {
	w := &opWrap{op: op, tr: tr, stats: stats}
	w.forward = w.emitThrough
	_, inc := op.(operator.IncrementalSnapshotter)
	_, part := op.(operator.PartitionedState)
	_, tick := op.(operator.Ticker)
	i, p, t := incM{w}, partM{w}, tickM{w}
	switch {
	case inc && part && tick:
		return wrapIPT{w, i, p, t}
	case inc && part:
		return wrapIP{w, i, p}
	case inc && tick:
		return wrapIT{w, i, t}
	case part && tick:
		return wrapPT{w, p, t}
	case inc:
		return wrapI{w, i}
	case part:
		return wrapP{w, p}
	case tick:
		return wrapT{w, t}
	default:
		return w
	}
}
