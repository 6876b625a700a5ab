package main

import (
	"math"
	"sync/atomic"
	"time"
)

// recorder is the benchmark's own operator.LatencyRecorder, handed to the
// sink through the NewOperators wrapper. It keeps fixed memory: latencies
// go into the histogram of the current fault-free phase (nil outside
// it), and the only other state is the longest gap between
// consecutive deliveries that overlaps a watched interval.
type recorder struct {
	cur      atomic.Pointer[Histogram]
	last     atomic.Int64 // wall ns of the previous delivery
	from, to atomic.Int64 // watched interval, wall ns
	maxGap   atomic.Int64
}

// RecordLatency implements operator.LatencyRecorder. It runs on the sink's
// HAU goroutine for every delivery.
func (r *recorder) RecordLatency(at int64, lat time.Duration) {
	if prev := r.last.Swap(at); prev != 0 && at > r.from.Load() && prev < r.to.Load() {
		if gap := at - prev; gap > r.maxGap.Load() {
			r.maxGap.Store(gap)
		}
	}
	if h := r.cur.Load(); h != nil {
		h.Record(int64(lat))
	}
}

// resetGap forgets the longest gap seen so far.
func (r *recorder) resetGap() { r.maxGap.Store(0) }

// watch opens an interval: from now on, delivery gaps overlapping it count
// towards gap. unwatch closes it; the gap spanning its end is counted when
// the next delivery arrives.
func (r *recorder) watch() {
	r.to.Store(math.MaxInt64)
	r.from.Store(time.Now().UnixNano())
}

func (r *recorder) unwatch() { r.to.Store(time.Now().UnixNano()) }

// gap returns the longest delivery gap overlapping a watched interval
// since resetGap.
func (r *recorder) gap() time.Duration { return time.Duration(r.maxGap.Load()) }
