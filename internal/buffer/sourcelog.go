package buffer

import (
	"fmt"
	"slices"
	"sync"

	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

// SourceLog implements source preservation: a source HAU writes every
// output tuple to stable storage before sending it downstream, so the
// preserved tuples remain accessible even if the source node fails (paper
// §III-A, step 3). Writes are group-committed: tuples accumulate in a small
// pending batch that is flushed as a single stable write once it reaches
// FlushBytes, keeping per-tuple latency overhead realistic for low-rate
// sensor sources.
//
// The log is segmented by checkpoint epoch. When the application checkpoint
// for epoch e completes, everything preserved for epochs < e is obsolete
// (the new checkpoint already contains its effects) and is dropped.
type SourceLog struct {
	src        string
	store      *storage.Store
	flushBytes int64

	mu       sync.Mutex
	epoch    uint64
	segments map[uint64][]*tuple.Tuple // epoch -> flushed tuples
	pending  []*tuple.Tuple
	pendingB int64
	segSeq   uint64
}

// NewSourceLog returns a log for source HAU src persisting into store.
// flushBytes <= 0 flushes on every append (strict write-before-send).
func NewSourceLog(src string, store *storage.Store, flushBytes int64) *SourceLog {
	return &SourceLog{
		src:        src,
		store:      store,
		flushBytes: flushBytes,
		segments:   make(map[uint64][]*tuple.Tuple),
	}
}

// Epoch returns the epoch new tuples are being preserved under.
func (l *SourceLog) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Append preserves t (a copy) under the current epoch. The call blocks for
// the stable-storage write when the pending batch flushes — modelling
// "saves these tuples in stable storage before sending them out".
func (l *SourceLog) Append(t *tuple.Tuple) error {
	l.mu.Lock()
	l.pending = append(l.pending, t.Clone())
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
	l.mu.Lock()
	if len(l.pending) == 0 {
		l.mu.Unlock()
		return nil
	}
	batch := l.pending
	epoch := l.epoch
	seq := l.segSeq
	l.segSeq++
	l.pending = nil
	l.pendingB = 0
	l.mu.Unlock()

	key := fmt.Sprintf("preserve/%s/%016d/%08d", l.src, epoch, seq)
	if l.store != nil {
		// MarshalMany's buffer is fresh and never touched again: hand it
		// over instead of letting Put copy it.
		if _, err := l.store.PutOwned(key, tuple.MarshalMany(batch)); err != nil {
			return fmt.Errorf("sourcelog %s: %w", l.src, err)
		}
	}
	l.mu.Lock()
	l.segments[epoch] = append(l.segments[epoch], batch...)
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

// Prune discards segments for epochs < keep: once the application
// checkpoint `keep` is complete, older preserved tuples can never be
// replayed again.
func (l *SourceLog) Prune(keep uint64) {
	l.mu.Lock()
	var drop []uint64
	for e := range l.segments {
		if e < keep {
			drop = append(drop, e)
		}
	}
	for _, e := range drop {
		delete(l.segments, e)
	}
	l.mu.Unlock()
	if l.store != nil {
		for _, e := range drop {
			prefix := fmt.Sprintf("preserve/%s/%016d/", l.src, e)
			for _, k := range l.store.Keys(prefix) {
				_ = l.store.Delete(k)
			}
		}
	}
}

// ReplaySince returns copies of every preserved tuple with epoch >= since,
// in preservation order, charging stable-storage read cost. Recovery calls
// this with the MRC epoch to re-feed the restarted application.
func (l *SourceLog) ReplaySince(since uint64) ([]*tuple.Tuple, error) {
	if err := l.Flush(); err != nil {
		return nil, err
	}
	l.mu.Lock()
	var epochs []uint64
	for e := range l.segments {
		if e >= since {
			epochs = append(epochs, e)
		}
	}
	// Epoch numbers are strictly increasing over time, so sorting them
	// recovers preservation order.
	slices.Sort(epochs)
	var out []*tuple.Tuple
	var bytes int64
	for _, e := range epochs {
		for _, t := range l.segments[e] {
			out = append(out, t.Clone())
			bytes += t.Size()
		}
	}
	l.mu.Unlock()
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
	for _, seg := range l.segments {
		n += len(seg)
	}
	return n
}
