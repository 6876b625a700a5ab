package tuple

import "sync"

// Pooling and ownership
//
// The hot path recycles tuple headers and batch containers through
// sync.Pools. The rules that make this safe:
//
//   - A tuple header has exactly one owner at a time. Whoever holds the
//     only reference may Put it back; everyone else must Retain (header
//     copy) or Clone (deep copy) first.
//   - Payloads (Data) are immutable once a tuple has been emitted
//     downstream. Retained copies therefore share the payload bytes
//     instead of copying them (copy-on-retain of the header only). Put
//     never recycles payload bytes for the same reason: another header
//     may still reference them.
//   - Source logs keep only encoded bytes, one immutable segment per
//     flush, never a tuple. Tuples a source log replays alias their
//     segment's payload bytes (UnmarshalShared), so the same rule holds
//     for them: never write into a replayed tuple's Data.
//   - Batch containers are owned by the receiver after a channel send;
//     PutBatch recycles the container only, never the tuples inside.

var tuplePool = sync.Pool{New: func() any { return new(Tuple) }}

// Get returns a zeroed tuple from the pool.
func Get() *Tuple { return tuplePool.Get().(*Tuple) }

// Put recycles t. The caller must hold the only reference to the header;
// the payload bytes are left alone (they may be shared with retained
// copies). Put(nil) is a no-op.
func Put(t *Tuple) {
	if t == nil {
		return
	}
	*t = Tuple{}
	tuplePool.Put(t)
}

// NewAt returns a pooled data tuple carrying the given timestamp. The hot
// path uses it instead of New so one coarse clock read can stamp a whole
// generation batch.
func NewAt(id uint64, src, key string, ts int64, data []byte) *Tuple {
	t := Get()
	t.ID, t.Src, t.Key, t.Ts, t.Data = id, src, key, ts, data
	return t
}

// NewTokenAt returns a pooled control tuple carrying tok at the given
// timestamp.
func NewTokenAt(tok Token, ts int64) *Tuple {
	t := Get()
	t.Ts = ts
	t.Tok = &tok
	return t
}

// Retain returns a pooled shallow copy of t: the header is copied, the
// payload (and token, which is immutable) is shared. This is the
// copy-on-retain path used by preservation and checkpoint retention;
// it relies on emitted payloads being immutable.
func (t *Tuple) Retain() *Tuple {
	c := Get()
	*c = *t
	return c
}

// Batch is the unit in which tuples cross an edge: senders accumulate up
// to the edge's batch size before one channel send. Tuples keep their
// individual identity; the batch is only a transport container.
type Batch struct {
	Tuples []*Tuple
}

var batchPool = sync.Pool{New: func() any { return &Batch{Tuples: make([]*Tuple, 0, 64)} }}

// GetBatch returns an empty batch container from the pool.
func GetBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.Tuples = b.Tuples[:0]
	return b
}

// PutBatch recycles the batch container. Tuple ownership must already
// have moved elsewhere; the contained references are dropped, not Put.
func PutBatch(b *Batch) {
	if b == nil {
		return
	}
	for i := range b.Tuples {
		b.Tuples[i] = nil
	}
	b.Tuples = b.Tuples[:0]
	batchPool.Put(b)
}

// BatchOf wraps ts in a pooled batch container.
func BatchOf(ts ...*Tuple) *Batch {
	b := GetBatch()
	b.Tuples = append(b.Tuples, ts...)
	return b
}

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.Tuples)
}
