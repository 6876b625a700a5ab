package buffer

import (
	"fmt"
	"sync"

	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

// SourceLog implements source preservation: a source HAU writes every
// output tuple to stable storage before sending it downstream, so the
// preserved tuples remain accessible even if the source node fails (paper
// §III-A, step 3). Writes are group-committed: each tuple is encoded once,
// straight into a pending byte buffer that is flushed as a single stable
// write once it reaches FlushBytes, keeping per-tuple latency overhead
// realistic for low-rate sensor sources.
//
// The log keeps only those encoded segments, one per flush, never a
// decoded tuple: retention costs flat bytes the garbage collector need not
// scan. When the application checkpoint for epoch e completes, every
// segment preserved for epochs < e is obsolete (the new checkpoint already
// contains its effects) and is dropped.
type SourceLog struct {
	src        string
	store      *storage.Store
	flushBytes int64

	flushMu sync.Mutex // serializes flushes so segments stay in write order

	mu       sync.Mutex
	epoch    uint64
	segments []segment // flushed, in preservation order
	pending  []byte    // encodings not yet flushed
	pendingN int
	pendingB int64
	nextCap  int // capacity hint for the next pending buffer
	segSeq   uint64
}

// segment is one group-committed flush: the bytes written under key, which
// stay immutable once flushed, so replayed tuples alias their payloads.
type segment struct {
	key   string
	epoch uint64
	bytes []byte
	count int
	size  int64 // Size() sum of the tuples: what replay charges the disk
}

// NewSourceLog returns a log for source HAU src persisting into store.
// flushBytes <= 0 flushes on every append (strict write-before-send).
func NewSourceLog(src string, store *storage.Store, flushBytes int64) *SourceLog {
	return &SourceLog{src: src, store: store, flushBytes: flushBytes}
}

// Epoch returns the epoch new tuples are being preserved under.
func (l *SourceLog) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Append preserves t's encoding under the current epoch. The call blocks
// for the stable-storage write when the pending batch flushes — modelling
// "saves these tuples in stable storage before sending them out".
func (l *SourceLog) Append(t *tuple.Tuple) error {
	l.mu.Lock()
	if l.pending == nil {
		l.pending = make([]byte, 0, max(l.nextCap, t.MarshalledSize()))
	}
	l.pending = t.AppendMarshal(l.pending)
	l.pendingN++
	l.pendingB += t.Size()
	needFlush := l.pendingB >= l.flushBytes
	l.mu.Unlock()
	if needFlush {
		return l.Flush()
	}
	return nil
}

// Flush force-writes the pending batch to stable storage.
func (l *SourceLog) Flush() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if l.pendingN == 0 {
		l.mu.Unlock()
		return nil
	}
	seg := segment{epoch: l.epoch, bytes: l.pending, count: l.pendingN, size: l.pendingB}
	seq := l.segSeq
	l.segSeq++
	// Steady traffic flushes near-equal segments: size the next buffer
	// from this one, with slack for a longer key or payload.
	l.nextCap = len(seg.bytes) + len(seg.bytes)/16
	l.pending, l.pendingN, l.pendingB = nil, 0, 0
	l.mu.Unlock()

	seg.key = fmt.Sprintf("preserve/%s/%016d/%08d", l.src, seg.epoch, seq)
	if l.store != nil {
		// The pending buffer is never appended to again: hand it over
		// instead of letting Put copy it.
		if _, err := l.store.PutOwned(seg.key, seg.bytes); err != nil {
			return fmt.Errorf("sourcelog %s: %w", l.src, err)
		}
	}
	l.mu.Lock()
	l.segments = append(l.segments, seg)
	l.mu.Unlock()
	return nil
}

// BeginEpoch starts preserving under epoch e. Called when the source HAU
// takes its individual checkpoint for e: tuples generated after the
// checkpoint belong to the new epoch.
func (l *SourceLog) BeginEpoch(e uint64) error {
	if err := l.Flush(); err != nil {
		return err
	}
	l.mu.Lock()
	l.epoch = e
	l.mu.Unlock()
	return nil
}

// Prune discards segments for epochs < keep, deleting exactly the store
// keys their flushes wrote: once the application checkpoint `keep` is
// complete, older preserved tuples can never be replayed again.
func (l *SourceLog) Prune(keep uint64) {
	l.mu.Lock()
	var drop []string
	kept := l.segments[:0]
	for _, s := range l.segments {
		if s.epoch < keep {
			drop = append(drop, s.key)
		} else {
			kept = append(kept, s)
		}
	}
	clear(l.segments[len(kept):])
	l.segments = kept
	l.mu.Unlock()
	if l.store != nil {
		for _, k := range drop {
			_ = l.store.Delete(k)
		}
	}
}

// ReplaySince decodes every preserved tuple with epoch >= since, in
// preservation order, charging stable-storage read cost. Recovery calls
// this with the MRC epoch to re-feed the restarted application. Each call
// returns fresh headers (allocated together); their payloads alias the
// log's immutable segment bytes, and Src is the log's own id string.
func (l *SourceLog) ReplaySince(since uint64) ([]*tuple.Tuple, error) {
	if err := l.Flush(); err != nil {
		return nil, err
	}
	l.mu.Lock()
	var segs []segment
	n := 0
	var bytes int64
	for _, s := range l.segments {
		if s.epoch >= since {
			segs = append(segs, s)
			n += s.count
			bytes += s.size
		}
	}
	l.mu.Unlock()
	// Flushed segments are immutable, so decoding needs no lock.
	hdrs := make([]tuple.Tuple, n)
	out := make([]*tuple.Tuple, 0, n)
	for _, s := range segs {
		for buf := s.bytes; len(buf) > 0; {
			t := &hdrs[len(out)]
			k, err := t.UnmarshalShared(buf, l.src)
			if err != nil {
				return nil, fmt.Errorf("sourcelog %s: segment %s: %w", l.src, s.key, err)
			}
			out = append(out, t)
			buf = buf[k:]
		}
	}
	if bytes > 0 && l.store != nil {
		l.store.Disk().Read(bytes)
	}
	return out, nil
}

// PreservedCount returns the number of flushed tuples currently retained.
func (l *SourceLog) PreservedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.segments {
		n += s.count
	}
	return n
}
